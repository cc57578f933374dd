module U = Hp_util
module H = Hypergraph

type strategy = Overlap | Naive

type stats = {
  vertices_deleted : int;
  edges_deleted : int;
  maximality_checks : int;
  peel_rounds : int;
}

type result = {
  core : Hypergraph.t;
  vertex_ids : int array;
  edge_ids : int array;
  stats : stats;
}

(* ------------------------------------------------------------------ *)
(* Overlap bookkeeping.                                               *)

(* Flat CSR overlap graph: one node per hyperedge, one (symmetric)
   entry per overlapping pair.  [adj.(adj_off.(f) .. adj_off.(f+1)-1)]
   are f's partners in ascending id order; [ocount] holds the live
   shared-vertex count of the pair in BOTH directions, and [twin]
   maps a slot to its mirror in the partner's slice, so a symmetric
   count update is two array writes.  A pair whose count reaches 0 —
   or whose endpoint is deleted — has both slots zeroed and is skipped
   by every later scan; slices never shrink, "membership" is just
   [ocount > 0].  Invariant: [ocount.(s) > 0] implies both endpoints
   of the pair are alive ([delete_edge] zeroes the whole slice). *)
type csr = {
  adj_off : int array;  (* m+1 slice offsets *)
  adj : int array;      (* partner hyperedge ids, sorted per slice *)
  ocount : int array;   (* live overlap count per slot; 0 = dissolved *)
  twin : int array;     (* slot of the mirrored (g,f) entry *)
}

type overlap_impl = No_overlap | Csr of csr

(* Mutable peeling state over a (reduced) hypergraph.  The drivers
   below share it: the per-k algorithm of Figure 4 seeds a worklist
   with low-degree vertices, while the one-pass decomposition peels
   minimum-degree vertices from a bucket queue.  They observe deletions
   through the [on_vertex_degree] / [on_edge_delete] hooks. *)
(* Incidence is read straight off the immutable CSR arrays
   ([H.vertex_edges] / [H.edge_members]) filtered through the alive
   flags: the alive members of edge e are exactly its static members
   whose [valive] flag still holds, and symmetrically for a vertex's
   alive incident edges.  (Deletion order makes this exact: a vertex's
   flag drops before its edges are rechecked, and an edge's flag drops
   before its members' degrees fall.) *)
type state = {
  h : H.t;                                (* static incidence (CSR arrays) *)
  valive : bool array;
  ealive : bool array;
  vdeg : int array;
  edeg : int array;
  impl : overlap_impl;
  mutable on_vertex_degree : int -> unit; (* fires after a degree drop *)
  mutable on_edge_delete : int -> unit;
  mutable vdel : int;
  mutable edel : int;
  mutable checks : int;
}

(* --- flat CSR construction --- *)

(* Growable flat buffer of pair keys; one per domain chunk, so pushes
   are contention-free. *)
type keybuf = { mutable keys : int array; mutable len : int }

let keybuf_push kb x =
  if kb.len = Array.length kb.keys then begin
    let bigger = Array.make (2 * max 1 kb.len) 0 in
    Array.blit kb.keys 0 bigger 0 kb.len;
    kb.keys <- bigger
  end;
  kb.keys.(kb.len) <- x;
  kb.len <- kb.len + 1

(* Sort-based pairwise-overlap counting: each domain chunk emits one
   flat buffer holding a key f*m+g (f<g) per shared vertex of the
   pair, the buffers are radix-sorted in parallel, and a k-way
   run-length merge yields each distinct pair with its multiplicity —
   the overlap count — in ascending key order.  No hashtables: the
   build is bounded by the same O(sum d(v)^2) term as the paper's
   preprocessing, plus O(P) sort passes over the P emitted keys. *)
let build_csr ~domains h m nv =
  let buffers =
    U.Parallel.fold_range ~domains ~n:nv
      ~create:(fun () -> [ { keys = Array.make 1024 0; len = 0 } ])
      ~fold:(fun acc v ->
        let kb = List.hd acc in
        let adj = H.vertex_edges h v in
        let d = Array.length adj in
        for i = 0 to d - 1 do
          let fi = adj.(i) * m in
          for j = i + 1 to d - 1 do
            keybuf_push kb (fi + adj.(j))
          done
        done;
        acc)
      ~combine:(fun a b -> a @ b)
  in
  let bufs = Array.of_list buffers in
  let nb = Array.length bufs in
  (* Parallel per-buffer radix sort (each worker reuses its own
     domain-local Intsort scratch). *)
  U.Parallel.fold_range ~domains ~n:nb
    ~create:(fun () -> ())
    ~fold:(fun () i -> U.Intsort.sort ~len:bufs.(i).len bufs.(i).keys)
    ~combine:(fun () () -> ());
  (* Run-length merge into flat (key, count) arrays of unique pairs,
     ascending by key — which is exactly (f, g) lexicographic order. *)
  let ukeys = { keys = Array.make 1024 0; len = 0 } in
  let ucounts = { keys = Array.make 1024 0; len = 0 } in
  U.Intsort.merge_runs
    (Array.map (fun kb -> (kb.keys, kb.len)) bufs)
    (fun key count ->
      keybuf_push ukeys key;
      keybuf_push ucounts count);
  let np = ukeys.len in
  (* CSR assembly: degree count, offset prefix sum, symmetric fill.
     Processing pairs in ascending key order appends every slice in
     ascending partner order — for edge f the pairs (p, f) with p < f
     all sort before any (f, g) — so the slices support binary
     search. *)
  let deg = Array.make (max m 1) 0 in
  for i = 0 to np - 1 do
    let key = ukeys.keys.(i) in
    let f = key / m and g = key mod m in
    deg.(f) <- deg.(f) + 1;
    deg.(g) <- deg.(g) + 1
  done;
  let adj_off = Array.make (m + 1) 0 in
  for f = 0 to m - 1 do
    adj_off.(f + 1) <- adj_off.(f) + deg.(f)
  done;
  let total = adj_off.(m) in
  let adj = Array.make (max total 1) 0 in
  let ocount = Array.make (max total 1) 0 in
  let twin = Array.make (max total 1) 0 in
  let pos = Array.sub adj_off 0 (max m 1) in
  for i = 0 to np - 1 do
    let key = ukeys.keys.(i) and c = ucounts.keys.(i) in
    let f = key / m and g = key mod m in
    let sf = pos.(f) and sg = pos.(g) in
    pos.(f) <- sf + 1;
    pos.(g) <- sg + 1;
    adj.(sf) <- g;
    adj.(sg) <- f;
    ocount.(sf) <- c;
    ocount.(sg) <- c;
    twin.(sf) <- sg;
    twin.(sg) <- sf
  done;
  Csr { adj_off; adj; ocount; twin }

(* Slot of partner [g] in [f]'s slice, or -1: binary search over the
   sorted slice. *)
let csr_slot c f g =
  let lo = ref c.adj_off.(f) and hi = ref (c.adj_off.(f + 1) - 1) in
  let res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let x = Array.unsafe_get c.adj mid in
    if x = g then begin
      res := mid;
      lo := !hi + 1
    end
    else if x < g then lo := mid + 1
    else hi := mid - 1
  done;
  !res

let dec_overlap st f g =
  match st.impl with
  | No_overlap -> ()
  | Csr c ->
    let s = csr_slot c f g in
    if s >= 0 then begin
      match c.ocount.(s) with
      | 0 -> () (* pair already dissolved *)
      | n ->
        c.ocount.(s) <- n - 1;
        c.ocount.(c.twin.(s)) <- n - 1
    end

let init ~strategy ~domains h =
  let nv = H.n_vertices h and m = H.n_edges h in
  {
    h;
    valive = Array.make nv true;
    ealive = Array.make m true;
    vdeg = H.vertex_degrees h;
    edeg = H.edge_sizes h;
    impl =
      (match strategy with
      | Naive -> No_overlap
      | Overlap -> build_csr ~domains h m nv);
    on_vertex_degree = ignore;
    on_edge_delete = ignore;
    vdel = 0;
    edel = 0;
    checks = 0;
  }

let rec delete_edge st f =
  st.ealive.(f) <- false;
  st.edel <- st.edel + 1;
  st.on_edge_delete f;
  Array.iter
    (fun w ->
      if st.valive.(w) then begin
        st.vdeg.(w) <- st.vdeg.(w) - 1;
        st.on_vertex_degree w
      end)
    (H.edge_members st.h f);
  match st.impl with
  | No_overlap -> ()
  | Csr c ->
    (* Dissolve every surviving pair (f, g): zero both directions so
       partner scans skip them without consulting [ealive]. *)
    for s = c.adj_off.(f) to c.adj_off.(f + 1) - 1 do
      if c.ocount.(s) > 0 then begin
        c.ocount.(c.twin.(s)) <- 0;
        c.ocount.(s) <- 0
      end
    done

and check_maximality st f =
  if st.ealive.(f) then begin
    if st.edeg.(f) = 0 then delete_edge st f
    else begin
      let contained =
        match st.impl with
        | Csr c ->
          (* Scan f's partner slice: a live slot ([ocount > 0]) has an
             alive partner by the CSR invariant, and containment is
             count = degree.  The scan stops at the first witness. *)
          let df = st.edeg.(f) in
          let found = ref false in
          let s = ref c.adj_off.(f) and stop = c.adj_off.(f + 1) in
          while (not !found) && !s < stop do
            let cnt = Array.unsafe_get c.ocount !s in
            if cnt > 0 then begin
              st.checks <- st.checks + 1;
              if cnt = df then begin
                let g = Array.unsafe_get c.adj !s in
                let dg = st.edeg.(g) in
                if dg > df || (dg = df && g < f) then found := true
              end
            end;
            incr s
          done;
          !found
        | No_overlap ->
          (* Candidate containers share every member, so scanning the
             alive edges incident to one alive member of f is complete
             (edeg f > 0 here, so such a member exists). *)
          let ms = H.edge_members st.h f in
          let anchor = ref (-1) in
          let i = ref 0 in
          while !anchor < 0 do
            if st.valive.(ms.(!i)) then anchor := ms.(!i);
            incr i
          done;
          let subset_of g =
            st.checks <- st.checks + 1;
            Array.for_all
              (fun w -> (not st.valive.(w)) || H.mem st.h ~vertex:w ~edge:g)
              ms
          in
          Array.exists
            (fun g ->
              g <> f && st.ealive.(g)
              && (st.edeg.(g) > st.edeg.(f)
                 || (st.edeg.(g) = st.edeg.(f) && g < f))
              && subset_of g)
            (H.vertex_edges st.h !anchor)
      in
      if contained then delete_edge st f
    end
  end

let delete_vertex st v =
  st.valive.(v) <- false;
  st.vdel <- st.vdel + 1;
  let affected = ref [] in
  Array.iter
    (fun e -> if st.ealive.(e) then affected := e :: !affected)
    (H.vertex_edges st.h v);
  let affected = !affected in
  (* Overlap bookkeeping: every pair of alive edges containing v loses
     one common vertex. *)
  (match st.impl with
  | No_overlap -> ()
  | Csr _ ->
    let rec pairs = function
      | [] -> ()
      | f :: rest ->
        List.iter (fun g -> dec_overlap st f g) rest;
        pairs rest
    in
    pairs affected);
  (* [valive.(v)] is already down, so the flag-filtered member views
     exclude v; only the degree counters need the explicit update. *)
  List.iter (fun f -> st.edeg.(f) <- st.edeg.(f) - 1) affected;
  (* Only hyperedges whose degree was just decremented can have become
     non-maximal (paper Section 3). *)
  List.iter (fun f -> check_maximality st f) affected

let alive_ids flags =
  let buf = U.Dynarray.create ~dummy:0 () in
  Array.iteri (fun i alive -> if alive then U.Dynarray.push buf i) flags;
  U.Dynarray.to_array buf

let compose map ids = Array.map (fun i -> map.(i)) ids

let k_core ?(strategy = Overlap) ?(domains = 1) ?(deadline = U.Deadline.never) h k =
  if k < 0 then invalid_arg "Hypergraph_core.k_core: negative k";
  let reduced, emap0 = Hypergraph_reduce.reduce h in
  if k = 0 then begin
    {
      core = reduced;
      vertex_ids = Array.init (H.n_vertices h) Fun.id;
      edge_ids = emap0;
      stats =
        {
          vertices_deleted = 0;
          edges_deleted = H.n_edges h - H.n_edges reduced;
          maximality_checks = 0;
          peel_rounds = 0;
        };
    }
  end
  else begin
    let st = init ~strategy ~domains reduced in
    let queue = Queue.create () in
    st.on_vertex_degree <- (fun w -> if st.vdeg.(w) < k then Queue.add w queue);
    (* An initially-empty hyperedge (possible only when it is the sole
       hyperedge, otherwise reduction removed it) is deleted for any
       k >= 1 — the paper's "special case of a hyperedge becoming
       empty". *)
    for e = 0 to H.n_edges reduced - 1 do
      if st.edeg.(e) = 0 then delete_edge st e
    done;
    for v = 0 to H.n_vertices reduced - 1 do
      if st.vdeg.(v) < k then Queue.add v queue
    done;
    (* Drain the worklist in FIFO batches: everything queued at the top
       of a batch was exposed by the previous one, so the batch count is
       the cascade depth (the profiling gauge behind [peel_rounds]).
       Deletion order is exactly the plain FIFO drain's. *)
    let rounds = ref 0 in
    while not (Queue.is_empty queue) do
      incr rounds;
      let batch = Queue.length queue in
      for _ = 1 to batch do
        (* The cascade is the long pole on large inputs; abort promptly
           when the caller's budget is blown. *)
        U.Deadline.check deadline;
        U.Fault.point "core.peel";
        let v = Queue.take queue in
        if st.valive.(v) then delete_vertex st v
      done
    done;
    let vkeep = alive_ids st.valive and ekeep = alive_ids st.ealive in
    let core, _, esub = H.sub reduced ~vertices:vkeep ~edges:ekeep in
    {
      core;
      vertex_ids = vkeep;
      edge_ids = compose emap0 esub;
      stats =
        {
          vertices_deleted = st.vdel;
          edges_deleted = st.edel + (H.n_edges h - H.n_edges reduced);
          maximality_checks = st.checks;
          peel_rounds = !rounds;
        };
    }
  end

type decomposition = {
  vertex_core : int array;
  edge_core : int array;
  max_core : int;
}

(* The canonical one-pass drain: pop the (key, id)-lexicographic
   minimum of key(v) = max(degree(v), level) until the structure is
   empty.  A lazy {!Hp_util.Int_heap} carries packed [key * nv + id]
   entries; [key] holds each live vertex's last pushed key, so a
   popped entry is current exactly when it matches.  Keys are monotone
   per vertex: a live vertex always satisfies key(v) >= level (an
   entry keyed below the level would have been consumed before the
   level rose past it), so re-keying on a degree drop can only lower
   the key, and the stale higher-keyed entries pop after the vertex is
   already gone.

   Popping the lexicographic minimum makes the sweep a pure function
   of the peeling state, and — because the clamp level observed by a
   re-key equals the key of the same-component pop in progress —
   component-local: the sweep of any union of overlap components,
   started at the level floor [level0], reproduces the full sweep's
   pops, levels and edge-deletion levels restricted to those
   components.  That is the property the subcore cascade
   ({!Hypergraph_maintain}) resumes from. *)
let canonical_drain ~deadline st ~level0 ~vertex_core ~record_edge =
  let nv = Array.length st.valive in
  let stride = max nv 1 in
  let key = Array.make (max nv 1) 0 in
  let heap = U.Int_heap.create ~capacity:(nv + 16) () in
  let level = ref level0 in
  for v = 0 to nv - 1 do
    if st.valive.(v) then begin
      let k = max st.vdeg.(v) level0 in
      key.(v) <- k;
      U.Int_heap.push heap ((k * stride) + v)
    end
  done;
  st.on_vertex_degree <-
    (fun w ->
      (* Degree below the current level cannot lower the core number
         any further; clamp so the key stays monotone. *)
      let k = max st.vdeg.(w) !level in
      if k < key.(w) then begin
        key.(w) <- k;
        U.Int_heap.push heap ((k * stride) + w)
      end);
  st.on_edge_delete <- (fun f -> record_edge f !level);
  let continue = ref true in
  while !continue do
    match U.Int_heap.pop_min heap with
    | None -> continue := false
    | Some packed ->
      let k = packed / stride and v = packed mod stride in
      if st.valive.(v) && key.(v) = k then begin
        U.Deadline.check deadline;
        U.Fault.point "core.peel";
        if k > !level then level := k;
        vertex_core.(v) <- !level;
        delete_vertex st v
      end
  done;
  !level

(* The one-pass sweep, also returning the peeling state so callers
   ([max_core]) can surface its counters without a second peel. *)
let decompose_state ~strategy ~domains ~deadline h =
  let nv = H.n_vertices h and m = H.n_edges h in
  let vertex_core = Array.make nv 0 in
  let edge_core = Array.make m (-1) in
  let reduced, emap0 = Hypergraph_reduce.reduce h in
  Array.iter (fun e -> edge_core.(e) <- 0) emap0;
  let st = init ~strategy ~domains reduced in
  (* Initially-empty hyperedges belong to the 0-core only (their
     pre-assigned level 0 stands: the hooks are installed later, inside
     the drain). *)
  for e = 0 to H.n_edges reduced - 1 do
    if st.edeg.(e) = 0 then delete_edge st e
  done;
  let max_core =
    canonical_drain ~deadline st ~level0:0 ~vertex_core
      ~record_edge:(fun f lvl -> edge_core.(emap0.(f)) <- lvl)
  in
  ({ vertex_core; edge_core; max_core }, st)

let resume_peel ?(strategy = Overlap) ?(domains = 1)
    ?(deadline = U.Deadline.never) ~level h =
  if level < 0 then invalid_arg "Hypergraph_core.resume_peel: negative level";
  let nv = H.n_vertices h and m = H.n_edges h in
  let vertex_core = Array.make nv level in
  let edge_core = Array.make m (-1) in
  let st = init ~strategy ~domains h in
  (* No reduction pass: the input is a peel boundary — already reduced
     and containment-free by construction.  Hooks go in BEFORE the
     degree-0 scan so that a degenerate empty hyperedge records the
     floor level instead of escaping with -1. *)
  let level_ref = ref level in
  st.on_edge_delete <- (fun f -> edge_core.(f) <- !level_ref);
  for e = 0 to m - 1 do
    if st.edeg.(e) = 0 then delete_edge st e
  done;
  st.on_edge_delete <- ignore;
  let max_core =
    canonical_drain ~deadline st ~level0:level ~vertex_core
      ~record_edge:(fun f lvl -> edge_core.(f) <- lvl)
  in
  { vertex_core; edge_core; max_core }

let decompose ?(strategy = Overlap) ?(domains = 1)
    ?(deadline = U.Deadline.never) h =
  fst (decompose_state ~strategy ~domains ~deadline h)

let core_of_decomposition h (d : decomposition) k =
  (* The decomposition already knows every core: vertices with
     [vertex_core >= k] and edges deleted at level >= k ARE the k-core
     (when the one-pass level first reaches k, the alive structure is
     exactly the k-core, and restricting a surviving edge to surviving
     vertices reproduces its alive member set).  Build the
     subhypergraph from those id sets instead of re-peeling.

     Edge identity: which original hyperedge survives the peel to
     claim a given core member-set depends on deletion order (two
     hyperedges can shrink to the same restriction).  Canonicalize by
     re-mapping each surviving restriction to the smallest original
     hyperedge id whose restriction to the core vertex set equals it —
     a choice independent of any peel order. *)
  if k < 0 then invalid_arg "Hypergraph_core.core_of_decomposition: negative k";
  let nv = H.n_vertices h and m = H.n_edges h in
  let vkeep = U.Dynarray.create ~dummy:0 () in
  Array.iteri (fun v c -> if c >= k then U.Dynarray.push vkeep v) d.vertex_core;
  let vkeep = U.Dynarray.to_array vkeep in
  let incore = Array.make nv false in
  Array.iter (fun v -> incore.(v) <- true) vkeep;
  let restrict e =
    let members = H.edge_members h e in
    let cnt = ref 0 in
    Array.iter (fun v -> if incore.(v) then incr cnt) members;
    if !cnt = Array.length members then members
    else begin
      let r = Array.make !cnt 0 and i = ref 0 in
      Array.iter
        (fun v ->
          if incore.(v) then begin
            r.(!i) <- v;
            incr i
          end)
        members;
      r
    end
  in
  (* Smallest original hyperedge per non-empty restriction (ids are
     scanned ascending, so first write wins). *)
  let reps = Hashtbl.create (2 * m) in
  for e = 0 to m - 1 do
    let r = restrict e in
    if Array.length r > 0 && not (Hashtbl.mem reps r) then Hashtbl.add reps r e
  done;
  let alive = ref 0 in
  let ekeep = U.Dynarray.create ~dummy:0 () in
  Array.iteri
    (fun e c ->
      if c >= k then begin
        incr alive;
        let r = restrict e in
        (* A surviving empty restriction only happens for the 0-core's
           sole-empty-hyperedge special case; it represents itself. *)
        let rep = if Array.length r = 0 then e else Hashtbl.find reps r in
        U.Dynarray.push ekeep rep
      end)
    d.edge_core;
  let ekeep = U.Sorted.of_array (U.Dynarray.to_array ekeep) in
  let core, _, _ = H.sub h ~vertices:vkeep ~edges:ekeep in
  {
    core;
    vertex_ids = vkeep;
    edge_ids = ekeep;
    stats =
      {
        vertices_deleted = nv - Array.length vkeep;
        edges_deleted = m - !alive;
        maximality_checks = 0;
        (* Assembled from the arrays: no FIFO cascade structure. *)
        peel_rounds = 0;
      };
  }

let max_core ?(strategy = Overlap) ?(domains = 1) ?(deadline = U.Deadline.never) h =
  let d, st = decompose_state ~strategy ~domains ~deadline h in
  let r = core_of_decomposition h d d.max_core in
  (d.max_core, { r with stats = { r.stats with maximality_checks = st.checks } })

let core_profile d =
  (* Single pass: histogram the core numbers, then suffix-sum so level
     k counts everything with core >= k — O(nv + ne + max_core)
     instead of rescanning both arrays once per level. *)
  let mc = d.max_core in
  let vcnt = Array.make (mc + 1) 0 in
  let ecnt = Array.make (mc + 1) 0 in
  Array.iter (fun c -> vcnt.(c) <- vcnt.(c) + 1) d.vertex_core;
  Array.iter
    (fun c -> if c >= 0 then ecnt.(c) <- ecnt.(c) + 1)
    d.edge_core;
  for k = mc - 1 downto 0 do
    vcnt.(k) <- vcnt.(k) + vcnt.(k + 1);
    ecnt.(k) <- ecnt.(k) + ecnt.(k + 1)
  done;
  Array.init (mc + 1) (fun k -> (k, vcnt.(k), ecnt.(k)))

type round_stats = {
  rounds : int;
  batch_sizes : int array;
  core_vertices : int;
  core_edges : int;
}

let peel_rounds ?(strategy = Overlap) ?(domains = 1)
    ?(deadline = U.Deadline.never) h k =
  if k < 0 then invalid_arg "Hypergraph_core.peel_rounds: negative k";
  let reduced, _ = Hypergraph_reduce.reduce h in
  let nv = H.n_vertices reduced in
  let st = init ~strategy ~domains reduced in
  for e = 0 to H.n_edges reduced - 1 do
    if st.edeg.(e) = 0 then delete_edge st e
  done;
  let batches = U.Dynarray.create ~dummy:0 () in
  let continue = ref (k > 0) in
  while !continue do
    let batch = ref [] in
    for v = 0 to nv - 1 do
      if st.valive.(v) && st.vdeg.(v) < k then batch := v :: !batch
    done;
    match !batch with
    | [] -> continue := false
    | vs ->
      U.Dynarray.push batches (List.length vs);
      List.iter
        (fun v ->
          (* Same budget discipline as the other drivers: the cascade
             inside a round is where the time goes. *)
          U.Deadline.check deadline;
          U.Fault.point "core.peel";
          if st.valive.(v) then delete_vertex st v)
        vs
  done;
  let core_vertices = Array.fold_left (fun a b -> if b then a + 1 else a) 0 st.valive in
  let core_edges = Array.fold_left (fun a b -> if b then a + 1 else a) 0 st.ealive in
  {
    rounds = U.Dynarray.length batches;
    batch_sizes = U.Dynarray.to_array batches;
    core_vertices;
    core_edges;
  }
