(* The traced run's in-process half: the first phase's request log
   replayed through the layers' public functions in hgd's order (parse,
   registry find, result-cache find, kernel or registry mutate,
   result-cache add, encode; the client's decode after), one span per
   call; the run's write stream replayed straight into Registry, Wal
   and Hypergraph_maintain; one direct call of each kernel per dataset;
   load and snapshot timings; and two transport micro-benchmarks
   (Event_loop echo, Worker handoff).  Nothing here adds tracing inside
   the libraries: every span wraps a call from this file. *)

module P = Hp_server.Protocol
module Reg = Hp_server.Registry
module Cache = Hp_server.Result_cache
module Metrics = Hp_server.Metrics
module Wal = Hp_wal.Wal
module Live = Hp_wal.Live
module HM = Hp_hypergraph.Hypergraph_maintain

let now = Clock.now

let copy_file src dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> output_string oc data)

let fresh_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  dir

(* Copies of the workload's dataset files in [dir], so a pass can mutate
   (and write a WAL) without touching the daemon's files. *)
let copies (w : Workload.t) dir =
  let dir = fresh_dir dir in
  List.map
    (fun (d : Workload.dataset) ->
      let dst = Filename.concat dir (Filename.basename d.file) in
      copy_file d.file dst;
      dst)
    w.datasets

let mutation_of : P.request -> (string * Wal.op) option = function
  | P.Add_vertex { dataset; name } -> Some (dataset, Wal.Add_vertex { name })
  | P.Add_edge { dataset; name; members } ->
    Some (dataset, Wal.Add_edge { name; members = Array.of_list members })
  | P.Del_edge { dataset; edge } -> Some (dataset, Wal.Del_edge { edge })
  | _ -> None

let ack (epoch, assigned, nv, ne) =
  P.Ok
    ([ ("epoch", string_of_int epoch) ]
    @ (match assigned with Some a -> [ ("assigned", string_of_int a) ] | None -> [])
    @ [
        ("vertices", string_of_int nv);
        ("hyperedges", string_of_int ne);
        ("checkpointed", "false");
      ])

let io_err = function
  | `Missing | `Ambiguous -> P.err P.Unknown_dataset "no such dataset"
  | `Invalid m -> P.err P.Bad_request m
  | `Io m -> P.err P.Io_error m

(* One replay pass: a registry, a result cache and the kernels'
   counters, with or without spans. *)
type pass = {
  reg : Reg.t;
  cache : Cache.t;
  metrics : Metrics.t;
  spans : Spans.t;
  counts : Analysis.counts;
  mutable req : int;
  mutable hits : int;
  mutable misses : int;
  mutable errors : int;
}

let pass ~traced ~cache_capacity files =
  let reg = Reg.create () in
  List.iter
    (fun f -> match Reg.load reg f with Ok _ -> () | Error _ -> failwith ("replay: cannot load " ^ f))
    files;
  let metrics = Metrics.create () in
  {
    reg;
    cache = Cache.create ~capacity:cache_capacity ~metrics ();
    metrics;
    spans = Spans.create ~enabled:traced;
    counts = Analysis.counts ();
    req = 0;
    hits = 0;
    misses = 0;
    errors = 0;
  }

let sp p name f = Spans.with_span p.spans ~req:p.req name f

let wrap p = { Analysis.run = (fun name f -> sp p name f) }

let analyze p dataset analysis =
  match sp p "registry.find" (fun () -> Reg.find p.reg dataset) with
  | `Missing | `Ambiguous -> P.err P.Unknown_dataset dataset
  | `Found e -> (
    let st = e.Reg.state in
    let key = Cache.key ~digest:e.Reg.digest ~epoch:st.Reg.epoch ~analysis in
    match sp p "result_cache.find" (fun () -> Cache.find p.cache key) with
    | Some payload ->
      p.hits <- p.hits + 1;
      P.Ok (payload @ [ ("cached", "true") ])
    | None ->
      p.misses <- p.misses + 1;
      let payload =
        sp p "kernel" (fun () ->
            Analysis.payload ~wrap:(wrap p) ~counts:p.counts ~cores:st.Reg.cores
              st.Reg.hypergraph analysis)
      in
      sp p "result_cache.add" (fun () -> Cache.add p.cache key payload);
      P.Ok (payload @ [ ("cached", "false") ]))

let mutate p dataset op =
  match sp p "registry.mutate" (fun () -> Reg.mutate p.reg dataset op) with
  | Ok a -> ack (a.Reg.epoch, a.Reg.assigned, a.Reg.n_vertices, a.Reg.n_edges)
  | Error e -> io_err e

let answer p parsed =
  match parsed with
  | Error m -> P.err P.Bad_request m
  | Ok P.Ping -> P.Ok [ ("pong", "hgd"); ("uptime_s", "0.0") ]
  | Ok (P.Analyze { dataset; analysis }) -> analyze p dataset analysis
  | Ok req -> (
    match mutation_of req with
    | Some (ds, op) -> mutate p ds op
    | None -> P.err P.Bad_request "not replayed")

(* Serve one logged request as hgd would, BATCH runs of mutations on one
   dataset included (one [mutate_batch] per run of two or more). *)
let serve p text =
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' text) in
  let parse l = sp p "protocol.parse" (fun () -> P.parse_request l) in
  let replies =
    sp p "request" (fun () ->
        match lines with
        | [ line ] -> [ answer p (parse line) ]
        | header :: items ->
          ignore (parse header);
          let parsed = Array.of_list (List.map parse items) in
          let mut i = match parsed.(i) with Ok r -> mutation_of r | Error _ -> None in
          let n = Array.length parsed in
          let out = ref [] in
          let i = ref 0 in
          while !i < n do
            let j = ref !i in
            (match mut !i with
            | Some (ds, _) ->
              while !j + 1 < n && (match mut (!j + 1) with Some (d, _) -> d = ds | None -> false) do
                incr j
              done
            | None -> ());
            if !j = !i then out := answer p parsed.(!i) :: !out
            else begin
              let ds = match mut !i with Some (d, _) -> d | None -> assert false in
              let ops =
                List.init (!j - !i + 1) (fun k ->
                    match mut (!i + k) with Some (_, op) -> op | None -> assert false)
              in
              match sp p "registry.mutate_batch" (fun () -> Reg.mutate_batch p.reg ds ops) with
              | Ok r ->
                Array.iter
                  (fun item ->
                    out :=
                      (match item with
                      | Ok (b : Reg.batch_item) ->
                        ack (b.Reg.b_epoch, b.Reg.b_assigned, b.Reg.b_n_vertices, b.Reg.b_n_edges)
                      | Error e -> io_err e)
                      :: !out)
                  r.Reg.items
              | Error e -> List.iter (fun _ -> out := io_err e :: !out) ops
            end;
            i := !j + 1
          done;
          List.rev !out
        | [] -> [])
  in
  let prefix = List.length lines > 1 in
  List.iteri
    (fun i reply ->
      let text =
        sp p "protocol.encode" (fun () ->
            (if prefix then P.item_line i ^ "\n" else "") ^ P.encode_reply reply)
      in
      let body =
        if prefix then String.sub text (String.index text '\n' + 1) (String.length text - String.index text '\n' - 1)
        else text
      in
      match sp p "protocol.decode" (fun () -> P.decode_reply body) with
      | Ok (P.Ok _) -> ()
      | Ok (P.Err _) | Error _ -> p.errors <- p.errors + 1)
    replies;
  p.req <- p.req + 1

(* ---------- per-layer numbers ---------- *)

let us x = x *. 1e6

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let median_time reps f =
  let b = Pct.buf () in
  for _ = 1 to reps do
    Pct.add b (snd (timed f))
  done;
  Pct.median (Pct.sorted b)

(* Metrics read off a traced pass: mean self time per call of each
   span name, counts, and the kernel's share of service time. *)
let span_metrics p =
  let agg = Spans.aggregate p.spans in
  let get name = Hashtbl.find_opt agg name in
  let mean name =
    match get name with Some a -> us (Pct.mean a.Spans.self) | None -> 0.0
  in
  let calls name = match get name with Some a -> float_of_int a.Spans.calls | None -> 0.0 in
  let total name = match get name with Some a -> a.Spans.total | None -> 0.0 in
  let service = total "request" in
  let lookups = p.hits + p.misses in
  [
    ("protocol.parse_us", mean "protocol.parse", "us");
    ("protocol.encode_us", mean "protocol.encode", "us");
    ("protocol.decode_us", mean "protocol.decode", "us");
    ("registry.find_us", mean "registry.find", "us");
    ("result_cache.find_us", mean "result_cache.find", "us");
    ( "result_cache.hit_ratio",
      (if lookups = 0 then 0.0 else float_of_int p.hits /. float_of_int lookups),
      "ratio" );
    ("result_cache.evictions", float_of_int (Metrics.get p.metrics "cache_evictions"), "count");
    ("registry.mutate_calls", calls "registry.mutate" +. calls "registry.mutate_batch", "count");
    ("hypergraph_core.k_core_us", mean "hypergraph_core.k_core", "us");
    ("hypergraph_core.max_core_us", mean "hypergraph_core.max_core", "us");
    ( "hypergraph_core.core_of_decomposition_us",
      mean "hypergraph_core.core_of_decomposition",
      "us" );
    ("hypergraph_core.peel_rounds", float_of_int p.counts.Analysis.peel_rounds, "count");
    ("hypergraph_core.maximality_checks", float_of_int p.counts.Analysis.maximality_checks, "count");
    ("hypergraph_path.sweep_us", mean "hypergraph_path.sweep", "us");
    ("hypergraph_path.bfs_sources", float_of_int p.counts.Analysis.bfs_sources, "count");
    ("cover.greedy_us", mean "cover.greedy", "us");
    ("stats.powerlaw_us", mean "stats.powerlaw", "us");
    ("replay.requests", float_of_int p.req, "count");
    ("replay.service_us", (if p.req = 0 then 0.0 else us service /. float_of_int p.req), "us");
    ("replay.kernel_share", (if service > 0.0 then total "kernel" /. service else 0.0), "ratio");
  ]

(* The run's write stream (write-mix's writer, or the read-only
   workloads' write probe) replayed straight into the storage and
   maintenance layers on a fresh copy of its dataset: Registry.mutate
   and mutate_batch, then recovery of that copy through its WAL; Wal
   create/append under hgd's default sync policy; and
   Hypergraph_maintain over the same ops, bursts through apply_batch. *)
let storage_metrics ~dir ~(base : Workload.dataset) ~writes =
  let dir = fresh_dir dir in
  let bursts =
    List.map
      (fun (text, _) ->
        List.filter_map
          (fun l -> match P.parse_request l with Ok r -> mutation_of r | Error _ -> None)
          (String.split_on_char '\n' text))
      writes
  in
  let copy = Filename.concat dir (Filename.basename base.file) in
  copy_file base.file copy;
  let reg = Reg.create () in
  (match Reg.load reg copy with Ok _ -> () | Error _ -> failwith ("replay: cannot load " ^ copy));
  let single = Pct.buf () and batch = Pct.buf () in
  List.iter
    (fun ops ->
      match ops with
      | [ (ds, op) ] ->
        let r, dt = timed (fun () -> Reg.mutate reg ds op) in
        if Result.is_error r then failwith "replay: mutation refused";
        Pct.add single dt
      | (ds, _) :: _ ->
        let r, dt = timed (fun () -> Reg.mutate_batch reg ds (List.map snd ops)) in
        if Result.is_error r then failwith "replay: mutation burst refused";
        Pct.add batch dt
      | [] -> ())
    bursts;
  let recover = median_time 3 (fun () -> ignore (Reg.load (Reg.create ()) copy)) in
  let wal_lat = Pct.buf () in
  let writer =
    match
      Wal.create ~path:(Filename.concat dir "direct.hgwal") ~handle:base.digest
        ~base_identity:base.digest ~base_epoch:0 ~sync:Wal.Batch
    with
    | Ok x -> x
    | Error e -> failwith (Wal.error_to_string e)
  in
  let epoch = ref 0 in
  List.iter
    (List.iter (fun (_, op) ->
         incr epoch;
         let r, dt = timed (fun () -> Wal.append writer { Wal.epoch = !epoch; op }) in
         (match r with Ok () -> () | Error e -> failwith (Wal.error_to_string e));
         Pct.add wal_lat dt))
    bursts;
  Wal.close writer;
  let m = HM.create base.h in
  let live = Live.of_hypergraph base.h in
  let repair = Pct.buf () and visited = Pct.buf () in
  List.iter
    (fun ops ->
      let shapes =
        List.map
          (fun (_, op) ->
            ignore (Live.apply_exn live op);
            match op with
            | Wal.Add_vertex _ -> HM.Op_add_vertex
            | Wal.Add_edge _ -> HM.Op_add_edge
            | Wal.Del_edge { edge } -> HM.Op_del_edge edge)
          ops
      in
      let after = Live.to_hypergraph live in
      let outcome, dt =
        timed (fun () ->
            match shapes with
            | [ HM.Op_add_vertex ] -> HM.add_vertex m ~after
            | [ HM.Op_add_edge ] -> HM.add_edge m ~after
            | [ HM.Op_del_edge edge ] -> HM.del_edge m ~after ~edge
            | _ -> HM.apply_batch m ~after ~ops:shapes)
      in
      Pct.add repair dt;
      match outcome with
      | HM.Cascade v | HM.Incremental v -> Pct.add visited (float_of_int v)
      | HM.Repeel -> ())
    bursts;
  let s = HM.stats m in
  let single = Pct.sorted single and wl = Pct.sorted wal_lat and rp = Pct.sorted repair in
  [
    ("registry.mutate_p50_us", us (Pct.median single), "us");
    ("registry.mutate_p99_us", us (Pct.tail single), "us");
    ("registry.mutate_batch_us", us (Pct.mean batch), "us");
    ("registry.recover_us", us recover, "us");
    ("wal.append_p50_us", us (Pct.median wl), "us");
    ("wal.append_p99_us", us (Pct.tail wl), "us");
    ("wal.records", float_of_int (Pct.length wal_lat), "count");
    ("hypergraph_maintain.repair_p50_us", us (Pct.median rp), "us");
    ("hypergraph_maintain.repair_p99_us", us (Pct.tail rp), "us");
    ("hypergraph_maintain.repairs", float_of_int (Pct.length repair), "count");
    ("hypergraph_maintain.visited_mean", Pct.mean visited, "count");
    ("hypergraph_maintain.cascade_repairs", float_of_int s.HM.cascade_repairs, "count");
    ("hypergraph_maintain.full_repeels", float_of_int s.HM.full_repeels, "count");
    ("hypergraph_maintain.budget_fallbacks", float_of_int s.HM.budget_fallbacks, "count");
  ]

(* Registry and Snapshot load times per dataset, for both the text and
   the packed form of every dataset of the workload (the two forms sit
   in separate directories, so the text load cannot pick up a sibling
   snapshot). *)
let load_metrics (w : Workload.t) ~dir =
  let text_dir = fresh_dir (Filename.concat (fresh_dir dir) "text") in
  let snap_dir = fresh_dir (Filename.concat dir "snap") in
  let texts, snaps =
    List.split
      (List.mapi
         (fun i (d : Workload.dataset) ->
           let text = Filename.concat text_dir (Printf.sprintf "d%d.hg" i) in
           let snap = Filename.concat snap_dir (Printf.sprintf "d%d.hgsnap" i) in
           Hp_hypergraph.Hypergraph_io.write text d.h;
           ignore (Hp_snapshot.Snapshot.pack d.h snap);
           (text, snap))
         w.datasets)
  in
  let per_dataset f = us (median_time 5 f) /. float_of_int (List.length w.datasets) in
  let reg_load fs () =
    let reg = Reg.create () in
    List.iter (fun f -> ignore (Reg.load reg f)) fs
  in
  [
    ("registry.load_text_us", per_dataset (reg_load texts), "us");
    ("registry.load_snapshot_us", per_dataset (reg_load snaps), "us");
    ( "snapshot.load_us",
      per_dataset (fun () -> List.iter (fun f -> ignore (Hp_snapshot.Snapshot.load f)) snaps),
      "us" );
  ]

(* One direct call of each kernel per dataset, in the traced pass under
   a "calibrate" root (outside the replayed service time), so every
   kernel's per-call time is measured on every workload's data even
   where the replay itself never reaches it (all hits on hot-read). *)
let calibrate p (w : Workload.t) =
  let counts = Analysis.counts () in
  List.iter
    (fun (d : Workload.dataset) ->
      let kmax = Workload.max_core w.oracle d in
      let cores = Some (Hp_hypergraph.Hypergraph_core.decompose d.h) in
      sp p "calibrate" (fun () ->
          let call ?(cores = None) a = ignore (Analysis.payload ~wrap:(wrap p) ~counts ~cores d.h a) in
          call (P.Kcore (Some kmax));
          call (P.Kcore None);
          call ~cores (P.Kcore None);
          call P.Stats;
          call (P.Cover { weighting = P.Uniform; r = 1 });
          call P.Powerlaw))
    w.datasets

(* ---------- transport micro-benchmarks ---------- *)

(* Round trips through Event_loop.create with a Reply_now handler, over
   two connections driven by the same closed-loop client. *)
let echo ~seconds =
  let listener = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 16;
  let port = match Unix.getsockname listener with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
  let pong = P.encode_reply (P.Ok [ ("pong", "hgd") ]) in
  let loop =
    Hp_server.Event_loop.create ~metrics:(Metrics.create ())
      ~on_request:(fun _ _ -> Hp_server.Event_loop.Reply_now pong)
      ~on_http:(fun ~peer:_ _ -> "")
      ~listeners:[ (listener, `Protocol) ]
      ()
  in
  let rtt = Pct.buf () in
  let fds = [| Loop.connect port; Loop.connect port |] in
  let req = { Loop.text = "PING\n"; items = 0; tag = () } in
  ignore
    (Loop.run ~fds
       ~next:(fun _ -> Some req)
       ~on_done:(fun _ _ ~t0 ~t1 -> function
         | Loop.Reply _ -> Pct.add rtt (t1 -. t0)
         | Loop.Failed m -> failwith ("echo: " ^ m))
       ~until:(now () +. seconds) ~timeout:10.0);
  Array.iter Unix.close fds;
  Hp_server.Event_loop.stop loop;
  Hp_server.Event_loop.join loop;
  let s = Pct.sorted rtt in
  [ ("event_loop.echo_p50_us", us (Pct.median s), "us"); ("event_loop.echo_p99_us", us (Pct.tail s), "us") ]

(* Time from Worker.submit to job start, default pool size, two jobs in
   flight (as two connections would keep). *)
let handoff ~jobs =
  let m = Mutex.create () and c = Condition.create () in
  let lat = Pct.buf () in
  let finished = ref 0 in
  let pool =
    Hp_server.Worker.create (fun submitted ->
        let dt = now () -. submitted in
        Mutex.lock m;
        Pct.add lat dt;
        incr finished;
        Condition.signal c;
        Mutex.unlock m)
  in
  let submit () =
    match Hp_server.Worker.submit pool (now ()) with
    | `Accepted -> ()
    | `Busy _ | `Stopping -> failwith "handoff: job refused"
  in
  submit ();
  submit ();
  Mutex.lock m;
  let sent = ref 2 in
  while !finished < jobs do
    let seen = !finished in
    while !finished = seen do
      Condition.wait c m
    done;
    while !sent < jobs && !sent - !finished < 2 do
      Mutex.unlock m;
      submit ();
      Mutex.lock m;
      incr sent
    done
  done;
  Mutex.unlock m;
  Hp_server.Worker.shutdown pool;
  let s = Pct.sorted lat in
  [ ("worker.handoff_p50_us", us (Pct.median s), "us"); ("worker.handoff_p99_us", us (Pct.tail s), "us") ]

(* ---------- the whole traced run ---------- *)

(* [run w ~log ~writes ~cache_capacity ~dir ~budget ~trace_file]
   replays [log] (the first phase's requests in completion order: text,
   items) through a result cache of the daemon's capacity, and the
   write stream [writes] = (dataset, write requests), and returns every
   per-layer metric this file measures, plus the replay's own error
   count. *)
let run (w : Workload.t) ~log ~writes:(base, writes) ~cache_capacity ~dir ~budget ~trace_file =
  let dir = fresh_dir dir in
  let warm p = List.iter (fun (line, _) -> serve p (line ^ "\n")) w.warmup in
  (* Traced pass: as much of the log as fits in the budget. *)
  let traced = pass ~traced:true ~cache_capacity (copies w (Filename.concat dir "traced")) in
  warm { traced with spans = Spans.create ~enabled:false; counts = Analysis.counts () };
  traced.hits <- 0;
  traced.misses <- 0;
  let n = ref 0 in
  let t0 = now () in
  List.iter
    (fun (text, _) ->
      if now () -. t0 < budget then begin
        serve traced text;
        incr n
      end)
    log;
  let traced_s = now () -. t0 in
  (* Untraced pass over the same prefix: the overhead ratio's base. *)
  let plain = pass ~traced:false ~cache_capacity (copies w (Filename.concat dir "plain")) in
  warm plain;
  let t1 = now () in
  List.iteri (fun i (text, _) -> if i < !n then serve plain text) log;
  let plain_s = now () -. t1 in
  calibrate traced w;
  Spans.write traced.spans trace_file;
  let metrics =
    span_metrics traced
    @ storage_metrics ~dir:(Filename.concat dir "writes") ~base ~writes
    @ load_metrics w ~dir:(Filename.concat dir "load")
    @ echo ~seconds:1.0
    @ handoff ~jobs:5000
    @ [ ("trace.overhead_ratio", (if plain_s > 0.0 then traced_s /. plain_s else 0.0), "ratio") ]
  in
  (metrics, traced.errors + plain.errors)
