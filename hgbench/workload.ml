(* The three workloads: their seeded inputs, their request streams, and
   the oracle every reply is checked against.

   - hot-read: the paper's Cellzome instance (seed 2004) and a small
     key set, so after the warm-up every analysis is a result-cache hit
     and kernel work is about zero.
   - cold-compute: a Cellzome-calibrated proteome and a Table-1-like
     block-structured Matrix-Market instance, both served from packed
     snapshots; the stream cycles in a fixed shuffled order over at
     least twice the daemon's result-cache capacity of distinct keys,
     so the LRU never holds the working set and every analysis runs a
     kernel.
   - write-mix: a fresh copy of the paper instance; connection 0 is
     the only writer (single mutations and BATCH bursts), connection 1
     reads KCORE from the maintained cores.  Being the only writer, it
     always knows the current ids, so no op is stale and every ERR is a
     real failure.

   The traffic mixes are those of [hgtool loadgen] (Hp_server.Loadgen:
   [pick_request] for reads, [pick_mutation] for writes), restricted to
   the verbs each workload names.  Three parts have no source in the
   repository and are unverified against any caller: hot-read's COVER
   slot (loadgen sends no COVER), the share and size of write-mix's
   mutation bursts (loadgen sends none; they copy its read-side BATCH,
   one request in eight, of three items), and the whole of
   cold-compute, whose stream is a cycle over every key by design. *)

module P = Hp_server.Protocol
module H = Hp_hypergraph.Hypergraph
module Reg = Hp_server.Registry
module Wal = Hp_wal.Wal
module Prng = Hp_util.Prng

let names = [ "hot-read"; "cold-compute"; "write-mix" ]

type dataset = { file : string; digest : string; h : H.t }

(* Load a generated file in-process exactly as hgd's registry does, for
   its digest and the hypergraph the daemon will see. *)
let load_local file =
  match Reg.load (Reg.create ()) file with
  | Ok (e, _) -> { file; digest = e.Reg.digest; h = e.Reg.state.Reg.hypergraph }
  | Error (Reg.Read_failed m | Reg.Parse_failed m) -> failwith (file ^ ": " ^ m)

let write_text dir name h =
  let file = Filename.concat dir name in
  Hp_hypergraph.Hypergraph_io.write file h;
  load_local file

let write_snapshot dir name h =
  let file = Filename.concat dir name in
  ignore (Hp_snapshot.Snapshot.pack h file);
  load_local file

(* ---------- reply checks ---------- *)

type check =
  | Pong
  | Payload of { want : (string * string) list; cached : bool option }
      (** exact analysis payload; [cached] is the required result-cache
          outcome, when the workload fixes one *)
  | Ack of { epoch : int; assigned : int option; nv : int; ne : int }
  | Core_read of { k : int option; lo : int }
      (** a write-mix KCORE, verified after the phase against the
          states it may have seen (epochs [lo] .. sent at reply time) *)

type tag = { write : bool; checks : check list }

type req = tag Loop.req

(* Split a reply into its sub-replies: one for a plain request, [n] for
   a BATCH (the ITEM tag lines dropped). *)
let sub_replies text ~items =
  if items = 0 then [ text ]
  else begin
    let lines = Array.of_list (String.split_on_char '\n' text) in
    let out = ref [] and i = ref 0 in
    while !i < Array.length lines && lines.(!i) <> "" do
      let header = lines.(!i + 1) in
      let n =
        if String.starts_with ~prefix:"OK " header then
          Option.value ~default:0 (int_of_string_opt (String.sub header 3 (String.length header - 3)))
        else 0
      in
      out := String.concat "\n" (Array.to_list (Array.sub lines (!i + 1) (n + 1))) :: !out;
      i := !i + n + 2
    done;
    List.rev !out
  end

let strip_cached kvs = List.filter (fun (k, _) -> k <> "cached") kvs

let render kvs = String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)

(* An analysis reply against its expected payload and cache outcome. *)
let check_payload ~want ~cached kvs =
  let got = strip_cached kvs in
  if got <> want then Error ("payload mismatch: got " ^ render got ^ " want " ^ render want)
  else
    match cached with
    | Some c when List.assoc_opt "cached" kvs <> Some (string_of_bool c) ->
      Error (if c then "expected a result-cache hit" else "expected a result-cache miss")
    | _ -> Ok ()

(* [Ok reads] lists the deferred write-mix reads: (k, lo, payload). *)
let check_reply (r : req) text =
  let subs = sub_replies text ~items:r.items in
  if List.length subs <> List.length r.tag.checks then Error "wrong number of sub-replies"
  else
    List.fold_left2
      (fun acc sub check ->
        match acc with
        | Error _ -> acc
        | Ok reads -> (
          match P.decode_reply (sub ^ "\n") with
          | Error e -> Error ("undecodable reply: " ^ e)
          | Ok (P.Err { code; message; _ }) ->
            Error (Printf.sprintf "ERR %s %s" (P.error_code_to_string code) message)
          | Ok (P.Ok kvs) -> (
            match check with
            | Pong ->
              if List.assoc_opt "pong" kvs = Some "hgd" then Ok reads else Error "bad PING reply"
            | Payload { want; cached } -> Result.map (fun () -> reads) (check_payload ~want ~cached kvs)
            | Ack { epoch; assigned; nv; ne } ->
              let want =
                [ ("epoch", string_of_int epoch) ]
                @ (match assigned with Some a -> [ ("assigned", string_of_int a) ] | None -> [])
                @ [
                    ("vertices", string_of_int nv);
                    ("hyperedges", string_of_int ne);
                    ("checkpointed", "false");
                  ]
              in
              if kvs = want then Ok reads
              else Error ("ack mismatch: got " ^ render kvs ^ " want " ^ render want)
            | Core_read { k; lo } -> Ok ((k, lo, strip_cached kvs) :: reads))))
      (Ok []) subs r.tag.checks

(* ---------- the single writer ---------- *)

(* The writer follows loadgen's [pick_mutation]: two ops in six delete
   the newest hyperedge it added (when it has one), two add a hyperedge
   over 2-4 distinct existing vertices, and the rest add a vertex.
   Only the newest of its own hyperedges is ever deleted, and every
   hyperedge added since the dataset was loaded is its own, so the one
   deleted is always the last and no id it holds ever shifts. *)
type writer = {
  model : Model.t;          (** state after every op generated (= sent) *)
  base : H.t;
  rng : Prng.t;
  prefix : string;          (** vertex/edge names are unique per run *)
  mutable fresh : int;
  mutable added : int list;    (** ids of the hyperedges it added, newest first *)
  mutable ops : Wal.op list;   (** every op generated, newest first *)
  mutable acked : int;         (** epoch of the last acknowledged op *)
  mutable publishes : int list;
      (** epochs at which a state became visible, newest first: one per
          single op, one per burst (a burst publishes once) *)
}

let writer ~prefix ~seed (d : dataset) =
  {
    model = Model.of_hypergraph d.h;
    base = d.h;
    rng = Prng.create seed;
    prefix;
    fresh = 0;
    added = [];
    ops = [];
    acked = 0;
    publishes = [ 0 ];
  }

let gen_op w =
  let m = w.model in
  let fresh kind =
    w.fresh <- w.fresh + 1;
    Printf.sprintf "%s%s%d" w.prefix kind w.fresh
  in
  match Prng.int w.rng 6 with
  | (0 | 1) when w.added <> [] ->
    let e = List.hd w.added in
    w.added <- List.tl w.added;
    Wal.Del_edge { edge = e }
  | (2 | 3) when m.Model.nv >= 2 ->
    let k = 2 + Prng.int w.rng 3 in
    let members = Prng.sample_without_replacement w.rng (min k m.Model.nv) m.Model.nv in
    Array.sort compare members;
    Wal.Add_edge { name = fresh "e"; members }
  | _ -> Wal.Add_vertex { name = fresh "v" }

let op_line digest (op : Wal.op) =
  P.request_line
    (match op with
    | Wal.Add_vertex { name } -> P.Add_vertex { dataset = digest; name }
    | Wal.Add_edge { name; members } ->
      P.Add_edge { dataset = digest; name; members = Array.to_list members }
    | Wal.Del_edge { edge } -> P.Del_edge { dataset = digest; edge })

(* Generate, apply to the model and render one op with its expected ack. *)
let next_op w digest =
  let op = gen_op w in
  let assigned = Model.apply w.model op in
  (match (op, assigned) with Wal.Add_edge _, Some e -> w.added <- e :: w.added | _ -> ());
  w.ops <- op :: w.ops;
  let m = w.model in
  ( op_line digest op ^ "\n",
    Ack { epoch = m.Model.epoch; assigned; nv = m.Model.nv; ne = m.Model.ne } )

(* A single mutation, or one request in eight a BATCH burst of three:
   the share and size of loadgen's read-side BATCH. *)
let write_req w digest : req =
  let n = if Prng.int w.rng 8 = 0 then 3 else 1 in
  let parts = List.init n (fun _ -> next_op w digest) in
  w.publishes <- w.model.Model.epoch :: w.publishes;
  let body = String.concat "" (List.map fst parts) in
  {
    Loop.text = (if n = 1 then body else Printf.sprintf "BATCH %d\n%s" n body);
    items = (if n = 1 then 0 else n);
    tag = { write = true; checks = List.map snd parts };
  }

let ops_in_order w = Array.of_list (List.rev w.ops)

(* ---------- workloads ---------- *)

type t = {
  dir : string;
  datasets : dataset list;          (** LOADed at setup, in order *)
  oracle : (string, (string * string) list) Hashtbl.t;
      (** "<digest> <analysis key>" -> expected payload *)
  keys : int;                       (** distinct analysis keys in the phase stream *)
  warmup : (string * check) list;   (** control-connection requests before the phase *)
  next : int -> req option;         (** connection index -> next request *)
  writer : writer option;           (** write-mix's writer, on its only dataset *)
}

let oracle_key d analysis = d.digest ^ " " ^ P.analysis_key analysis

let expect t d analysis =
  let key = oracle_key d analysis in
  match Hashtbl.find_opt t key with
  | Some p -> p
  | None ->
    let p = Analysis.expected d.h analysis in
    Hashtbl.replace t key p;
    p

let analyze_line d analysis = P.request_line (P.Analyze { dataset = d.digest; analysis })

let single line check write : req =
  { Loop.text = line ^ "\n"; items = 0; tag = { write; checks = [ check ] } }

let ping : req = single "PING" Pong false

(* Oracle max-core index of a dataset. *)
let max_core oracle d = int_of_string (List.assoc "k" (expect oracle d (P.Kcore None)))

let kcore_keys oracle d =
  P.Kcore None :: List.init (max_core oracle d + 1) (fun k -> P.Kcore (Some k))

let hot_read ~dir ~seed =
  let d = write_text dir "cellzome.hg" (Hp_data.Cellzome.paper ()).hypergraph in
  let oracle = Hashtbl.create 64 in
  let covers =
    [|
      P.Cover { weighting = P.Uniform; r = 1 };
      P.Cover { weighting = P.Degree; r = 1 };
      P.Cover { weighting = P.Degree_squared; r = 1 };
      P.Cover { weighting = P.Uniform; r = 2 };
    |]
  in
  let keys = [ P.Kcore (Some 2); P.Kcore None; P.Stats; P.Powerlaw ] @ Array.to_list covers in
  (* After the warm-up every analysis of the phase must be a hit. *)
  let hit a = (analyze_line d a ^ "\n", Payload { want = expect oracle d a; cached = Some true }) in
  let one a =
    let line, check = hit a in
    { Loop.text = line; items = 0; tag = { write = false; checks = [ check ] } }
  in
  let rngs = Array.init 2 (fun i -> Prng.create ((seed * 7919) + i)) in
  (* loadgen's [pick_request] with a dataset, eight slots, plus a ninth
     for COVER. *)
  let next i =
    let rng = rngs.(i) in
    Some
      (match Prng.int rng 9 with
      | 0 | 1 -> ping
      | 2 | 3 -> one (P.Kcore (Some 2))
      | 4 -> one (P.Kcore None)
      | 5 -> one P.Stats
      | 6 ->
        let parts = [ ("PING\n", Pong); hit (P.Kcore (Some 2)); hit P.Stats ] in
        {
          Loop.text = "BATCH 3\n" ^ String.concat "" (List.map fst parts);
          items = 3;
          tag = { write = false; checks = List.map snd parts };
        }
      | 7 -> one P.Powerlaw
      | _ -> one (Prng.choose rng covers))
  in
  let warmup =
    List.map (fun a -> (analyze_line d a, Payload { want = expect oracle d a; cached = None })) keys
  in
  { dir; datasets = [ d ]; oracle; keys = List.length keys; warmup; next; writer = None }

(* Both cold-compute instances are fixed (the paper's generator seed),
   so every run cycles over the same key set and the workload seed only
   shuffles the order.  The Table-1-like matrix is sized so an uncached
   KCORE takes tens of milliseconds and STATS about 0.1 s on a 2-core
   x86 host: no single request comes near 0.5 s. *)
let instance_seed = 2004

let cold_compute ~dir ~seed =
  let proteome =
    (Hp_data.Proteome_gen.generate (Prng.create instance_seed) Hp_data.Proteome_gen.cellzome_params)
      .hypergraph
  in
  let matrix =
    Hp_data.Matrix_market.block_structured (Prng.create instance_seed) ~n:1000 ~block:28 ~fill:0.5
      ~noise:500
    |> Hp_data.Matrix_market.to_hypergraph
  in
  let ds = [ write_snapshot dir "proteome.hgsnap" proteome; write_snapshot dir "matrix.hgsnap" matrix ] in
  let oracle = Hashtbl.create 512 in
  let keys =
    List.concat_map
      (fun d ->
        let covers =
          List.concat_map
            (fun weighting ->
              List.init (H.max_edge_size d.h) (fun i -> P.Cover { weighting; r = i + 1 }))
            [ P.Uniform; P.Degree; P.Degree_squared ]
        in
        List.map (fun a -> (d, a)) ((kcore_keys oracle d @ [ P.Stats; P.Powerlaw ]) @ covers))
      ds
    |> Array.of_list
  in
  Prng.shuffle (Prng.create seed) keys;
  Array.iter (fun (d, a) -> ignore (expect oracle d a)) keys;
  let cursor = ref 0 in
  (* Each key comes back only after every other one, so with at least
     twice the cache's capacity of keys every request must miss. *)
  let next _ =
    let d, a = keys.(!cursor mod Array.length keys) in
    incr cursor;
    Some (single (analyze_line d a) (Payload { want = expect oracle d a; cached = Some false }) false)
  in
  { dir; datasets = ds; oracle; keys = Array.length keys; warmup = []; next; writer = None }

(* Write-mix traffic on dataset [d]: the single writer on connection 0,
   the reader on connection 1. *)
let write_mix_on ~dir ~seed ~prefix d =
  let w = writer ~prefix ~seed d in
  let rng = Prng.create ((seed * 7919) + 1) in
  let oracle = Hashtbl.create 16 in
  (* The reader: loadgen's PING and KCORE slots (2 : 2 : 1 for PING,
     KCORE k=2, KCORE max). *)
  let read k = single (analyze_line d (P.Kcore k)) (Core_read { k; lo = w.acked }) false in
  let next = function
    | 0 -> Some (write_req w d.digest)
    | _ -> (
      match Prng.int rng 5 with
      | 0 | 1 -> Some ping
      | 2 | 3 -> Some (read (Some 2))
      | _ -> Some (read None))
  in
  { dir; datasets = [ d ]; oracle; keys = 2; warmup = []; next; writer = Some w }

let write_mix ~dir ~seed =
  let d = write_text dir "cellzome.hg" (Hp_data.Cellzome.paper ()).hypergraph in
  write_mix_on ~dir ~seed ~prefix:(Printf.sprintf "wm%d_" seed) d

let make name ~dir ~seed =
  match name with
  | "hot-read" -> hot_read ~dir ~seed
  | "cold-compute" -> cold_compute ~dir ~seed
  | "write-mix" -> write_mix ~dir ~seed
  | other -> invalid_arg ("unknown workload " ^ other)

(* The write probe of the read-only workloads: write-mix's traffic, its
   writer and its reader, on a separate fixed Cellzome instance (never
   one of the workload's datasets), so they too report mutation-ack
   latency, measured under the same load as on write-mix. *)
let probe t ~name ~seed =
  let rec pick s =
    let d = write_text t.dir name (Hp_data.Cellzome.generate ~seed:s ()).hypergraph in
    if List.exists (fun x -> x.digest = d.digest) t.datasets then pick (s + 1) else d
  in
  write_mix_on ~dir:t.dir ~seed ~prefix:(Printf.sprintf "pr%d_" seed) (pick (instance_seed + 1))

(* ---------- write-mix verification ---------- *)

(* The states a read may have seen: every publish in [lo, hi]. *)
let candidates w ~lo ~hi = List.filter (fun e -> e >= lo && e <= hi) w.publishes

(* Verify every read: each must match the Naive-peel oracle at one of
   its candidate epochs.  The oracle is computed once per (epoch, k)
   asked for, walking models forward through the epochs in order on two
   domains; a first pass asks only for each read's newest candidate, a
   second for the rest of the candidates of the reads the first left
   unmatched.  Returns the failures. *)
let verify_reads w reads =
  let ops = ops_in_order w in
  let tbl = Hashtbl.create 1024 in
  let compute pairs =
    let want = Hashtbl.create 1024 in
    List.iter
      (fun (e, k) ->
        if not (Hashtbl.mem tbl (e, k)) then begin
          let ks = Option.value ~default:[] (Hashtbl.find_opt want e) in
          if not (List.mem k ks) then Hashtbl.replace want e (k :: ks)
        end)
      pairs;
    let epochs = List.sort compare (Hashtbl.fold (fun e ks acc -> (e, ks) :: acc) want []) in
    (* Walk a model of its own forward through [part]'s epochs. *)
    let solve part =
      let m = Model.of_hypergraph w.base in
      List.concat_map
        (fun (e, ks) ->
          while m.Model.epoch < e do
            ignore (Model.apply m ops.(m.Model.epoch))
          done;
          let h = Model.to_hypergraph m in
          List.map (fun k -> ((e, k), Analysis.expected h (P.Kcore k))) ks)
        part
    in
    (* The later half of the epochs on a second domain: the oracle runs
       between phases, when the daemon is idle. *)
    let half = List.length epochs / 2 in
    let early = List.filteri (fun i _ -> i < half) epochs in
    let late = List.filteri (fun i _ -> i >= half) epochs in
    let d = Domain.spawn (fun () -> solve late) in
    let got = solve early in
    List.iter (fun (key, p) -> Hashtbl.replace tbl key p) (got @ Domain.join d)
  in
  let matches (k, _, _, got) es = List.exists (fun e -> Hashtbl.find_opt tbl (e, k) = Some got) es in
  let cands = List.map (fun ((_, lo, hi, _) as r) -> (r, candidates w ~lo ~hi)) reads in
  compute (List.concat_map (fun ((k, _, _, _), es) -> match es with e :: _ -> [ (e, k) ] | [] -> []) cands);
  let left = List.filter (fun (r, es) -> not (matches r es)) cands in
  compute (List.concat_map (fun ((k, _, _, _), es) -> List.map (fun e -> (e, k)) es) left);
  List.filter_map (fun (r, es) -> if matches r es then None else Some r) left
