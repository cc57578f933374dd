(* Self-checks of the benchmark harness: percentiles against a sort
   oracle and the ten-beyond rule, the closed-loop client's failure
   accounting against a misbehaving fake server, span nesting and self
   times, and a tiny smoke run of every workload against hgd. *)

open Hgbench

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ---------- percentiles ---------- *)

(* Oracle: the smallest sample value v with at least p% of the sample
   at or below it. *)
let oracle_percentile xs p =
  let s = List.sort compare xs in
  let n = List.length s in
  List.find (fun v -> float_of_int (List.length (List.filter (fun x -> x <= v) s)) >= p /. 100.0 *. float_of_int n) s

let test_percentile_oracle () =
  let rng = Random.State.make [| 2004 |] in
  for _ = 1 to 300 do
    let n = 1 + Random.State.int rng 400 in
    let xs = List.init n (fun _ -> Float.round (Random.State.float rng 50.0)) in
    let b = Pct.buf () in
    List.iter (Pct.add b) xs;
    let s = Pct.sorted b in
    List.iter
      (fun p ->
        Alcotest.(check (float 0.0))
          (Printf.sprintf "p%.0f of %d" p n)
          (oracle_percentile xs p) (Pct.percentile s p))
      [ 1.0; 25.0; 50.0; 90.0; 99.0; 100.0 ]
  done

let test_ten_beyond () =
  for n = 1 to 3000 do
    let i = Pct.tail_index n in
    let beyond = n - 1 - i in
    let median = Pct.rank_index n 50.0 in
    if n >= 1000 then checki (Printf.sprintf "n=%d reads the true p99" n) (Pct.rank_index n 99.0) i
    else
      checkb
        (Printf.sprintf "n=%d: ten beyond, or the median" n)
        true
        (beyond >= 10 || i = median);
    checkb (Printf.sprintf "n=%d: never below the median" n) true (i >= median)
  done;
  let b = Pct.buf () in
  for i = 1 to 100 do
    Pct.add b (float_of_int i)
  done;
  Alcotest.(check (float 0.0)) "100 samples: tail is the 90th" 90.0 (Pct.tail (Pct.sorted b))

(* ---------- closed-loop client ---------- *)

(* A fake server: connection 0 answers every request with ERR,
   connection 1 closes after its first request, and connection 2 (only
   with [~hang]) never answers.  Counts the requests it received. *)
let fake_server ~conns =
  let listener = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 8;
  let port = match Unix.getsockname listener with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
  let received = Atomic.make 0 in
  let serve behaviour fd =
    let ic = Unix.in_channel_of_descr fd in
    let rec go () =
      match input_line ic with
      | exception End_of_file -> ()
      | _ -> (
        Atomic.incr received;
        match behaviour with
        | `Err ->
          ignore (Unix.write_substring fd "ERR internal boom\n" 0 18);
          go ()
        | `Close -> ()
        | `Hang -> go ())
    in
    (try go () with Sys_error _ | Unix.Unix_error _ -> ());
    Unix.close fd
  in
  let th =
    Thread.create
      (fun () ->
        let threads =
          List.map
            (fun b ->
              let fd, _ = Unix.accept ~cloexec:true listener in
              Thread.create (serve b) fd)
            conns
        in
        List.iter Thread.join threads;
        Unix.close listener)
      ()
  in
  (port, received, th)

let ping : Workload.req = Workload.ping

let test_failures_counted () =
  let port, received, th = fake_server ~conns:[ `Err; `Close; `Hang ] in
  let t = Runner.tally () in
  let sent = ref 0 in
  let limit = 20 in
  Runner.drive ~timeout:0.3 t ~port ~n:3
    ~next:(fun _ ->
      if !sent >= limit then None
      else begin
        incr sent;
        Some ping
      end)
    ~until:(Clock.now () +. 10.0)
    ~on_reply:(fun _ _ -> ());
  Thread.join th;
  checki "every request sent was attempted" !sent t.Runner.attempted;
  checki "the server saw each request once (no retries)" !sent (Atomic.get received);
  checki "no request succeeded" 0 (Pct.length t.Runner.lat);
  checki "every request failed" !sent t.Runner.failed;
  checkb "EOF and timeout each end their connection after one request" true (!sent = limit)

(* A right payload with the wrong result-cache outcome is a failure:
   a cold-compute reply must miss, a hot-read one must hit. *)
let test_cache_outcome () =
  let want = [ ("k", "6") ] in
  let reply cached =
    Hp_server.Protocol.encode_reply (Hp_server.Protocol.Ok (want @ [ ("cached", cached) ]))
  in
  let req cached : Workload.req =
    let check = Workload.Payload { want; cached } in
    { Loop.text = ""; items = 0; tag = { write = false; checks = [ check ] } }
  in
  let ok r text = Result.is_ok (Workload.check_reply r text) in
  checkb "a miss where a miss is required" true (ok (req (Some false)) (reply "false"));
  checkb "a hit where a miss is required" false (ok (req (Some false)) (reply "true"));
  checkb "a hit where a hit is required" true (ok (req (Some true)) (reply "true"));
  checkb "a miss where a hit is required" false (ok (req (Some true)) (reply "false"));
  checkb "either, when none is required" true (ok (req None) (reply "true"))

(* ---------- spans ---------- *)

let test_spans () =
  let s = Spans.create ~enabled:true in
  let spin d =
    let t0 = Clock.now () in
    while Clock.now () -. t0 < d do () done
  in
  for req = 0 to 9 do
    Spans.with_span s ~req "request" (fun () ->
        spin 0.0005;
        Spans.with_span s ~req "a" (fun () ->
            spin 0.0003;
            Spans.with_span s ~req "leaf" (fun () -> spin 0.0002));
        (try Spans.with_span s ~req "b" (fun () -> spin 0.0001; raise Exit) with Exit -> ());
        spin 0.0002)
  done;
  checki "four spans per request" 40 (Spans.length s);
  let self = Spans.self_times s in
  for i = 0 to Spans.length s - 1 do
    checkb "self time >= 0" true (self.(i) >= 0.0);
    let p = Spans.parent s i in
    (match Spans.name s i with
    | "request" -> checki "roots have no parent" (-1) p
    | "a" | "b" -> Alcotest.(check string) "a and b nest in request" "request" (Spans.name s p)
    | _ -> Alcotest.(check string) "leaf nests in a" "a" (Spans.name s p));
    if p >= 0 then checkb "child inside parent" true (Spans.duration s i <= Spans.duration s p)
  done;
  (* Self times of a request's spans add up to the request's duration. *)
  let roots = List.filter (fun i -> Spans.name s i = "request") (List.init 40 Fun.id) in
  List.iter
    (fun r ->
      let sum = ref 0.0 in
      for i = r to r + 3 do
        sum := !sum +. self.(i)
      done;
      Alcotest.(check (float 1e-9)) "self times partition the request" (Spans.duration s r) !sum)
    roots

(* ---------- smoke runs ---------- *)

let hgd () =
  match Sys.getenv_opt "HGBENCH_HGD" with
  | Some p -> p
  | None -> Alcotest.fail "HGBENCH_HGD is not set"

let smoke workload ~trace () =
  let root = Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "hgbench-%d" (Unix.getpid ())) in
  let r = Runner.run ~phases:2 ~hgd:(hgd ()) ~root ~workload ~seed:7 ~seconds:1 ~trace () in
  Runner.rm_rf root;
  List.iter print_endline r.Runner.notes;
  checki "no failed request (error_rate 0)" 0 r.Runner.failed;
  checkb "correct" true r.Runner.correct;
  checkb "requests were made" true (r.Runner.attempted > 0);
  List.iter
    (fun (name, v, _) -> checkb (name ^ " is a finite number") true (Float.is_finite v))
    r.Runner.metrics

let () =
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  Alcotest.run "hgbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "matches a sort oracle" `Quick test_percentile_oracle;
          Alcotest.test_case "ten-beyond rule" `Quick test_ten_beyond;
        ] );
      ( "client",
        [
          Alcotest.test_case "EOF, timeout and ERR are failures" `Quick test_failures_counted;
          Alcotest.test_case "a wrong cache outcome is a failure" `Quick test_cache_outcome;
        ] );
      ("spans", [ Alcotest.test_case "nesting and self times" `Quick test_spans ]);
      ( "smoke",
        [
          Alcotest.test_case "hot-read" `Quick (smoke "hot-read" ~trace:false);
          Alcotest.test_case "cold-compute" `Quick (smoke "cold-compute" ~trace:false);
          Alcotest.test_case "write-mix" `Quick (smoke "write-mix" ~trace:false);
          Alcotest.test_case "write-mix traced" `Quick (smoke "write-mix" ~trace:true);
        ] );
    ]
