(* One benchmark run: generate the workload's inputs, then for each of
   several phases spawn hgd, time its set-up, warm it, drive a measured
   closed-loop phase over two TCP connections, check every reply, and
   time a restart; finally, for a traced run, replay the first phase
   in-process for per-layer numbers. *)

module P = Hp_server.Protocol
module H = Hp_hypergraph.Hypergraph
module Wal = Hp_wal.Wal
module Live = Hp_wal.Live

let now = Clock.now

(* The write probe of the read-only workloads runs write-mix's traffic
   after each phase for this share of the phase's time. *)
let probe_share = 0.5

let request_timeout = 20.0

type tally = {
  lat : Pct.buf;
  writes : Pct.buf;
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** first failures, for the log *)
  mutable last : float;  (** when the last successful reply arrived *)
}

let tally () =
  {
    lat = Pct.buf (); writes = Pct.buf (); attempted = 0; failed = 0; notes = [];
    last = 0.0;
  }

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.notes < 5 then t.notes <- msg :: t.notes

(* A control-connection request checked by [check] on the decoded
   reply; returns the key/value payload when it passed. *)
let ctl t d line check =
  t.attempted <- t.attempted + 1;
  match Daemon.call d line with
  | Error e ->
    fail t (line ^ ": " ^ e);
    None
  | Ok (P.Err { code; message; _ }) ->
    fail t (Printf.sprintf "%s: ERR %s %s" line (P.error_code_to_string code) message);
    None
  | Ok (P.Ok kvs) -> (
    match check kvs with
    | Ok () -> Some kvs
    | Error e ->
      fail t (line ^ ": " ^ e);
      None)

let expect_payload want kvs = Workload.check_payload ~want ~cached:None kvs

let load_all t d (w : Workload.t) =
  List.iter
    (fun (ds : Workload.dataset) ->
      ignore
        (ctl t d ("LOAD " ^ ds.file) (fun kvs ->
             if List.assoc_opt "digest" kvs = Some ds.digest then Ok () else Error "digest mismatch")))
    w.datasets

let spawn t ~hgd ~dir =
  match Daemon.spawn ~hgd ~dir with
  | Ok d -> d
  | Error e ->
    fail t e;
    failwith e

let scrape t d =
  match ctl t d "METRICS" (fun _ -> Ok ()) with
  | Some kvs -> kvs
  | None -> []

let num kvs k = Option.value ~default:0.0 (Option.bind (List.assoc_opt k kvs) float_of_string_opt)

let server_counters =
  [
    "requests_total"; "batch_items"; "cache_hits"; "cache_misses"; "cache_evictions";
    "kernel_peel_rounds"; "kernel_maximality_checks"; "kernel_bfs_sources"; "kcore_served_maintained";
    "kcore_cascade_repairs"; "kcore_full_repeels"; "wal_records_appended";
  ]

(* Per-phase server accounting from the METRICS scrapes before and after
   a phase: counter deltas, and for the queue-wait and service-time
   histograms their count and summed microseconds. *)
let server_deltas before after =
  let d k = num after k -. num before k in
  let sum kvs h = num kvs (h ^ "_count") *. num kvs (h ^ "_mean_us") in
  List.map (fun k -> (k, d k)) server_counters
  @ List.concat_map
      (fun h -> [ (h ^ "_count", d (h ^ "_count")); (h ^ "_sum", sum after h -. sum before h) ])
      [ "queue_wait"; "latency" ]

let add_deltas a b = if a = [] then b else List.map2 (fun (k, x) (_, y) -> (k, x +. y)) a b

(* The per-layer server metrics over every phase.  hgd counts a BATCH
   as one request for its header plus one per item, so
   [server.requests] (the client's unit: a BATCH is one) takes the items
   off, and each phase's second scrape, itself one request.  Queue wait
   is observed once per client request; hgd's latency histogram, and so
   [server.service_mean_us], observes every request and every BATCH
   item separately, a header's span containing its items' spans.  The
   two means are in different units, so no client/server gap is
   derived from them. *)
let server_metrics deltas ~phases =
  let g k = Option.value ~default:0.0 (List.assoc_opt k deltas) in
  let mean h = if g (h ^ "_count") > 0.0 then g (h ^ "_sum") /. g (h ^ "_count") else 0.0 in
  [
    ("server.requests", g "requests_total" -. g "batch_items" -. float_of_int phases, "count");
    ("server.queue_wait_mean_us", mean "queue_wait", "us");
    ("server.service_mean_us", mean "latency", "us");
  ]
  @ List.filter_map
      (fun k -> if k = "requests_total" then None else Some ("server." ^ k, g k, "count"))
      server_counters

(* Drive [next] over [n] fresh connections to [port] until [until]:
   every reply is checked, and a transport failure, an ERR or a wrong
   payload each count one failed request. *)
let drive ?(timeout = request_timeout) t ~port ~n ~next ~until ~on_reply =
  let fds = Array.init n (fun _ -> Loop.connect port) in
  let on_done _ (r : Workload.req) ~t0 ~t1 outcome =
    t.attempted <- t.attempted + 1;
    match outcome with
    | Loop.Failed m -> fail t ("transport: " ^ m)
    | Loop.Reply text -> (
      match Workload.check_reply r text with
      | Error e -> fail t e
      | Ok reads ->
        t.last <- t1;
        Pct.add t.lat (t1 -. t0);
        if r.tag.write then Pct.add t.writes (t1 -. t0);
        on_reply r reads)
  in
  let alive = Loop.run ~fds ~next ~on_done ~until ~timeout in
  Array.iteri (fun i fd -> if alive.(i) then Unix.close fd) fds

(* Naive-peel KCORE payloads of [h] at max and at every k up to one past
   the maximum core. *)
let all_k h =
  let kmax = int_of_string (List.assoc "k" (Analysis.expected h (P.Kcore None))) in
  List.map
    (fun k -> (P.Kcore k, Analysis.expected h (P.Kcore k)))
    (None :: List.init (kmax + 2) Option.some)

let check_all_k t d (ds : Workload.dataset) expected =
  List.iter
    (fun (a, want) -> ignore (ctl t d (Workload.analyze_line ds a) (expect_payload want)))
    expected

(* The write-mix state by the book: the daemon's WAL folded over the
   base, which must equal the benchmark's own model. *)
let wal_state t (wr : Workload.writer) (ds : Workload.dataset) =
  match Wal.read (Wal.sibling_path ds.file) with
  | Error e ->
    fail t ("wal: " ^ Wal.error_to_string e);
    Model.to_hypergraph wr.model
  | Ok log ->
    let live = Live.of_hypergraph wr.base in
    Array.iter (fun (r : Wal.record) -> ignore (Live.apply_exn live r.op)) log.records;
    let h = Live.to_hypergraph live in
    if not (H.equal_structure h (Model.to_hypergraph wr.model)) then
      fail t "wal replay differs from the writer's model";
    h

(* Drive write-mix traffic of [w] (its writer on connection 0, its
   reader on 1) until [until]; returns the reads to verify, with the
   epoch range each may have seen, and the write requests in order. *)
let drive_mix t d (w : Workload.t) ~until ~on_reply =
  let wr = Option.get w.writer in
  let reads = ref [] and wlog = ref [] in
  drive t ~port:d.Daemon.port ~n:2 ~next:w.next ~until ~on_reply:(fun (r : Workload.req) rs ->
      on_reply r;
      if r.tag.write then begin
        wr.acked <- wr.model.Model.epoch;
        wlog := (r.text, r.items) :: !wlog
      end
      else List.iter (fun (k, lo, kvs) -> reads := (k, lo, wr.model.Model.epoch, kvs) :: !reads) rs);
  (!reads, List.rev !wlog)

(* Check write-mix traffic after the fact: every read against the
   states it could have seen, then the daemon's WAL against the
   writer's model and KCORE at every k against a Naive peel of it.
   Returns the expected KCORE payloads of the final state. *)
let check_mix t d (w : Workload.t) reads ~label =
  let wr = Option.get w.writer and ds = List.hd w.datasets in
  let v0 = now () in
  List.iter
    (fun (k, _, _, got) ->
      fail t
        (Printf.sprintf "KCORE %s read matches no state it could have seen: %s"
           (match k with Some k -> string_of_int k | None -> "max")
           (Workload.render got)))
    (Workload.verify_reads wr reads);
  Printf.eprintf "hgbench: %s: verified %d write-mix reads against the oracle in %.1f s\n%!" label
    (List.length reads) (now () -. v0);
  let expected = all_k (wal_state t wr ds) in
  check_all_k t d ds expected;
  expected

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let mkdir_p path =
  let rec go p =
    if p <> "." && p <> "" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path

(* nproc, OCaml version and the event backend hgd's Poller picks here. *)
let host_fingerprint () =
  let p = Hp_server.Poller.create () in
  let backend = Hp_server.Poller.backend p in
  Hp_server.Poller.close p;
  Printf.sprintf "nproc=%d ocaml=%s event_backend=%s"
    (Domain.recommended_domain_count ()) Sys.ocaml_version backend

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  notes : string list;
}

(* The measured time is split over [phases] daemons, each spawned fresh
   (and, for write-mix, over a fresh copy of its dataset), and each
   phase gives set-up and restart samples.  Measured on a 2-core x86
   host, 5 seeds per workload at 20 s a run: with one daemon per run
   the spread (IQR / median) of hot-read's throughput was 0.62 and of
   its latency p99 1.00, and write-mix's latency p50 spread 0.16; with
   eight it was at most 0.15 on hot-read and 0.11 on write-mix.  Twelve
   give setup_s and recovery_s medians of 36 samples each, for about
   0.4 s of set-up and restarts per extra phase. *)
let phases = 12

let setups_per_phase = 3
let restarts_per_phase = 3

(* [run ~hgd ~root ~workload ~seed ~seconds ~trace ()] does one run with
   its inputs under [root] (removed afterwards, except the span file of
   a traced run). *)
let run ?(phases = phases) ~hgd ~root ~workload ~seed ~seconds ~trace () =
  let dir = Filename.concat root (Printf.sprintf "%s-s%d-p%d" workload seed (Unix.getpid ())) in
  rm_rf dir;
  mkdir_p dir;
  let t = tally () in
  (* The write probe keeps its own tally, so its requests stay out of
     the phase's throughput and latency. *)
  let pt = tally () in
  let w0 = Workload.make workload ~dir ~seed in
  (* Write-mix mutates its dataset, so each phase gets a fresh copy and
     a fresh writer; the read-only workloads continue one stream. *)
  let phase_workload i =
    if workload <> "write-mix" || i = 0 then w0
    else begin
      let sub = Filename.concat dir (Printf.sprintf "phase%d" i) in
      mkdir_p sub;
      Workload.make workload ~dir:sub ~seed:((seed * 16) + i)
    end
  in
  if workload = "hot-read" then begin
    (* The paper instance: its maximum core is k=6, 41 proteins, 54 complexes. *)
    let want = Workload.expect w0.oracle (List.hd w0.datasets) (P.Kcore None) in
    let field k = List.assoc k want in
    if (field "k", field "core_vertices", field "core_hyperedges") <> ("6", "41", "54") then
      fail t "seed 2004: KCORE max is not k=6 / 41 / 54"
  end;
  let setups = Pct.buf () and recoveries = Pct.buf () in
  let start (w : Workload.t) =
    let t0 = now () in
    let d = spawn t ~hgd ~dir:w.dir in
    load_all t d w;
    Pct.add setups (now () -. t0);
    d
  in
  let phase_seconds = float_of_int seconds /. float_of_int phases in
  let deltas = ref [] and cpu = ref 0.0 and wall = ref 0.0 and rss = Pct.buf () in
  let phase_log = ref [] and write_stream = ref None and cache_capacity = ref 0 in
  let phase i =
    let w = phase_workload i in
    for _ = 2 to setups_per_phase do
      if not (Daemon.shutdown (start w)) then fail t "shutdown after set-up"
    done;
    let d = start w in
    (* The daemon's own result-cache capacity: cold-compute's stream must
       cycle over at least twice as many keys for every request to miss. *)
    ignore
      (ctl t d "INFO" (fun kvs ->
           match Option.bind (List.assoc_opt "cache_capacity" kvs) int_of_string_opt with
           | None -> Error "no cache_capacity"
           | Some c ->
             cache_capacity := c;
             if workload = "cold-compute" && w.keys < 2 * c then
               Error
                 (Printf.sprintf "cold-compute cycles over %d keys, fewer than twice the cache's %d"
                    w.keys c)
             else Ok ()));
    List.iter
      (fun (line, check) ->
        ignore
          (ctl t d line (fun kvs ->
               match check with
               | Workload.Payload { want; cached } -> Workload.check_payload ~want ~cached kvs
               | _ -> Ok ())))
      w.warmup;
    let before = scrape t d in
    let n0 = Pct.length t.lat in
    let cpu0 = Daemon.cpu_seconds d in
    let t_start = now () in
    let until = t_start +. phase_seconds in
    let log = ref [] in
    let on_reply (r : Workload.req) = if i = 0 then log := (r.text, r.items) :: !log in
    let mix =
      match w.writer with
      | Some _ -> Some (drive_mix t d w ~until ~on_reply)
      | None ->
        drive t ~port:d.Daemon.port ~n:2 ~next:w.next ~until ~on_reply:(fun r _ -> on_reply r);
        None
    in
    let phase_wall = t.last -. t_start in
    wall := !wall +. phase_wall;
    cpu := !cpu +. (Daemon.cpu_seconds d -. cpu0);
    let plat = Pct.sorted_since t.lat n0 in
    Printf.eprintf "hgbench: phase %d: %d requests in %.2f s (%.1f req/s), p50 %.4f ms, tail %.4f ms\n%!" i
      (Array.length plat) phase_wall
      (float_of_int (Array.length plat) /. phase_wall)
      (1000.0 *. Pct.median plat) (1000.0 *. Pct.tail plat);
    Pct.add rss (Daemon.peak_rss_mib d);
    deltas := add_deltas !deltas (server_deltas before (scrape t d));
    if i = 0 then phase_log := List.rev !log;
    let final_state =
      match mix with
      | Some (reads, wlog) ->
        let expected = check_mix t d w reads ~label:(Printf.sprintf "phase %d" i) in
        if i = 0 then write_stream := Some (List.hd w.datasets, wlog);
        Some expected
      | None ->
        (* The write probe: write-mix's traffic on a fresh copy of the
           probe instance per phase, in its own tally. *)
        let pw = Workload.probe w ~name:(Printf.sprintf "probe%d.hg" i) ~seed:((seed * 16) + i) in
        load_all t d pw;
        let reads, wlog = drive_mix pt d pw ~until:(now () +. (probe_share *. phase_seconds)) ~on_reply:ignore in
        ignore (check_mix t d pw reads ~label:(Printf.sprintf "probe %d" i));
        if i = 0 then write_stream := Some (List.hd pw.datasets, wlog);
        None
    in
    (* Restart recovery: SHUTDOWN to the first KCORE reply of a
       respawned daemon that has LOADed everything again (replaying
       write-mix's WAL). *)
    let first = List.hd w.datasets in
    let want =
      match final_state with
      | Some expected -> List.assoc (P.Kcore None) expected
      | None -> Workload.expect w.oracle first (P.Kcore None)
    in
    let rec restart d k =
      let t0 = now () in
      if not (Daemon.shutdown d) then fail t "shutdown before restart";
      let d = spawn t ~hgd ~dir:w.dir in
      load_all t d w;
      ignore (ctl t d (Workload.analyze_line first (P.Kcore None)) (expect_payload want));
      Pct.add recoveries (now () -. t0);
      Option.iter (check_all_k t d first) final_state;
      if k > 1 then restart d (k - 1) else d
    in
    if not (Daemon.shutdown (restart d restarts_per_phase)) then fail t "shutdown after restart"
  in
  for i = 0 to phases - 1 do
    phase i
  done;
  let lat = Pct.sorted t.lat in
  let phase_ok = Array.length lat in
  let writes = Pct.sorted (if w0.writer = None then pt.writes else t.writes) in
  t.attempted <- t.attempted + pt.attempted;
  t.failed <- t.failed + pt.failed;
  t.notes <- t.notes @ pt.notes;
  let ms x = x *. 1000.0 in
  let e2e =
    [
      ("throughput_rps", float_of_int phase_ok /. !wall, "req/s");
      ("latency_p50_ms", ms (Pct.median lat), "ms");
      ("latency_p99_ms", ms (Pct.tail lat), "ms");
      ("write_p50_ms", ms (Pct.median writes), "ms");
      ("write_p99_ms", ms (Pct.tail writes), "ms");
      ("setup_s", Pct.median (Pct.sorted setups), "s");
      ("recovery_s", Pct.median (Pct.sorted recoveries), "s");
      ("server_cpu_ms_per_req", ms !cpu /. float_of_int phase_ok, "ms");
      ("server_rss_mb", Pct.median (Pct.sorted rss), "MiB");
    ]
  in
  Printf.eprintf
    "hgbench: %s seed %d: %d requests in %.2f s over 2 connections (%d daemons); p50 over %d, \
     tail is p%.2f; %d writes, tail p%.2f; error_rate %.6f (%d of %d)\n%!"
    workload seed phase_ok !wall phases (Array.length lat)
    (Pct.tail_percentile (Array.length lat))
    (Array.length writes)
    (Pct.tail_percentile (Array.length writes))
    (float_of_int t.failed /. float_of_int (max 1 t.attempted))
    t.failed t.attempted;
  let metrics, replay_errors =
    if trace then begin
      let m, errors =
        Replay.run w0 ~log:!phase_log ~writes:(Option.get !write_stream)
          ~cache_capacity:!cache_capacity ~dir:(Filename.concat dir "replay") ~budget:4.0
          ~trace_file:(Filename.concat root (workload ^ ".spans.tsv"))
      in
      (server_metrics !deltas ~phases @ m, errors)
    end
    else (e2e, 0)
  in
  if replay_errors > 0 then fail t (Printf.sprintf "%d replayed requests failed" replay_errors);
  Printf.eprintf "hgbench: host %s\n%!" (host_fingerprint ());
  List.iter (fun n -> Printf.eprintf "hgbench: failure: %s\n%!" n) (List.rev t.notes);
  rm_rf dir;
  { correct = t.failed = 0; attempted = t.attempted; failed = t.failed; metrics; notes = t.notes }
