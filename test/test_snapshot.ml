(* The binary snapshot store: pack/mmap round-trips, the corruption
   matrix (truncation, foreign bytes, version skew, checksum damage ⇒
   typed errors, never exceptions), and kernel bit-identity between
   text parse and snapshot load at 1/2/7 domains. *)

module H = Hp_hypergraph.Hypergraph
module HIO = Hp_hypergraph.Hypergraph_io
module HC = Hp_hypergraph.Hypergraph_core
module HP = Hp_hypergraph.Hypergraph_path
module MM = Hp_data.Matrix_market
module S = Hp_snapshot.Snapshot

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let tmp_dir () = Filename.temp_dir "hgsnap" "test"

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let expect_hypergraph what = function
  | Ok (h, _) -> h
  | Error e -> Alcotest.failf "%s: %s" what (S.error_to_string e)

let pack_to dir name h =
  let path = Filename.concat dir name in
  let info : S.pack_info = S.pack h path in
  checkb (name ^ ": pack reports the file size") true
    (info.bytes = (Unix.stat path).Unix.st_size);
  path

let same_names a b =
  H.n_vertices a = H.n_vertices b
  && H.n_edges a = H.n_edges b
  && Array.for_all
       (fun v -> H.vertex_name a v = H.vertex_name b v)
       (Array.init (H.n_vertices a) Fun.id)
  && Array.for_all (fun e -> H.edge_name a e = H.edge_name b e)
       (Array.init (H.n_edges a) Fun.id)

(* ---------- round trips ---------- *)

let test_round_trip_named () =
  let dir = tmp_dir () in
  let h = (Hp_data.Cellzome.generate ~seed:7 ()).hypergraph in
  let path = pack_to dir "cellzome.hgsnap" h in
  let h', t = Result.get_ok (S.read path) in
  checkb "structure survives" true (H.equal_structure h h');
  checkb "names survive" true (same_names h h');
  check "incidence recorded" (H.total_incidence h) t.S.incidence;
  checks "identity is stable across re-pack" t.S.identity
    (S.pack h (Filename.concat dir "again.hgsnap")).S.identity

(* Identities on disk outlive the code that computed them: WAL
   headers name their base by these digests and cache files key on
   them.  Both are pinned to the values of the paper instance written
   by [hgtool generate] and packed by [hgtool pack]. *)
let test_identities_pinned () =
  let dir = tmp_dir () in
  let text = Filename.concat dir "cellzome.hg" in
  HIO.write text (Hp_data.Cellzome.paper ()).hypergraph;
  let reg = Hp_server.Registry.create () in
  let entry, _ = Result.get_ok (Hp_server.Registry.load reg text) in
  checks "registry digest of the text file" "1777207712eda2429bc649b1c662214b"
    entry.Hp_server.Registry.digest;
  let path = pack_to dir "cellzome.hgsnap" entry.Hp_server.Registry.state.hypergraph in
  let _, t = Result.get_ok (S.read path) in
  checks "snapshot identity" "975d9259a7b584f41c555fd52cdfbdf0" t.S.identity;
  checkb "verify recomputes the same identity" true (Result.is_ok (S.verify path))

let test_round_trip_unnamed () =
  let dir = tmp_dir () in
  let h =
    H.of_arrays ~n_vertices:6 [| [| 0; 1; 2 |]; [| 2; 3 |]; [| 1; 4; 5 |]; [||] |]
  in
  let path = pack_to dir "plain.hgsnap" h in
  let h' = expect_hypergraph "read" (S.read path) in
  checkb "structure survives" true (H.equal_structure h h');
  checks "fallback names" "v3" (H.vertex_name h' 3);
  checkb "no vertex names stored" true (H.vertex_names_opt h' = None)

let test_round_trip_degenerate () =
  let dir = tmp_dir () in
  List.iteri
    (fun i h ->
      let path = pack_to dir (Printf.sprintf "degenerate%d.hgsnap" i) h in
      let h' = expect_hypergraph "read" (S.read path) in
      checkb "structure survives" true (H.equal_structure h h');
      match S.verify path with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "verify: %s" (S.error_to_string e))
    [
      H.create ~n_vertices:0 [];                    (* nothing at all *)
      H.create ~n_vertices:4 [];                    (* vertices, no edges *)
      H.create ~n_vertices:3 [ []; [ 0; 2 ] ];      (* an empty hyperedge *)
      H.create ~n_vertices:1 [ [ 0 ]; [ 0 ]; [ 0 ] ];
    ]

let test_round_trip_mtx () =
  let dir = tmp_dir () in
  let m = MM.banded (Hp_util.Prng.create 11) ~n:120 ~bandwidth:9 ~fill:0.7 in
  let h = MM.to_hypergraph m in
  let path = pack_to dir "banded.hgsnap" h in
  let h' = expect_hypergraph "read" (S.read path) in
  checkb "structure survives" true (H.equal_structure h h');
  checkb "names survive" true (same_names h h')

let test_weird_names () =
  (* The blob stores names by offset, so bytes the text format could
     never carry (spaces, newlines, NULs) must round-trip. *)
  let dir = tmp_dir () in
  let h =
    H.of_arrays
      ~vertex_names:[| "a b"; "t\tab"; ""; "nu\000l"; "line\nfeed" |]
      ~edge_names:[| "\xff\xfe"; "" |]
      ~n_vertices:5
      [| [| 0; 1; 4 |]; [| 2; 3 |] |]
  in
  let path = pack_to dir "weird.hgsnap" h in
  let h' = expect_hypergraph "read" (S.read path) in
  checkb "names survive" true (same_names h h')

(* ---------- corruption matrix ---------- *)

let load_error what path =
  match S.load path with
  | Ok _ -> Alcotest.failf "%s: load should fail" what
  | Error e -> e

let test_truncation () =
  let dir = tmp_dir () in
  let h = H.create ~n_vertices:4 [ [ 0; 1 ]; [ 1; 2; 3 ] ] in
  let path = pack_to dir "whole.hgsnap" h in
  let whole = read_bytes path in
  let cut = Filename.concat dir "cut.hgsnap" in
  List.iter
    (fun keep ->
      write_bytes cut (String.sub whole 0 keep);
      match load_error (Printf.sprintf "truncated to %d" keep) cut with
      | S.Truncated _ -> ()
      | e ->
        Alcotest.failf "truncated to %d: expected Truncated, got %s" keep
          (S.error_to_string e))
    [ 0; 8; 71; 100; String.length whole - 8; String.length whole - 1 ]

let flip path at =
  let b = Bytes.of_string (read_bytes path) in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x01));
  write_bytes path (Bytes.to_string b)

let test_bad_magic () =
  let dir = tmp_dir () in
  let h = H.create ~n_vertices:2 [ [ 0; 1 ] ] in
  let path = pack_to dir "magic.hgsnap" h in
  flip path 0;
  (match load_error "flipped magic" path with
  | S.Bad_magic -> ()
  | e -> Alcotest.failf "expected Bad_magic, got %s" (S.error_to_string e));
  (* A text dataset is not a snapshot either. *)
  let text = Filename.concat dir "text.hg" in
  HIO.write text (Hp_data.Cellzome.generate ~seed:3 ()).hypergraph;
  match load_error "text file" text with
  | S.Bad_magic -> ()
  | e -> Alcotest.failf "expected Bad_magic, got %s" (S.error_to_string e)

let test_version_skew () =
  let dir = tmp_dir () in
  let h = H.create ~n_vertices:2 [ [ 0; 1 ] ] in
  let path = pack_to dir "version.hgsnap" h in
  let b = Bytes.of_string (read_bytes path) in
  Hp_util.Binary.set_int_le b ~pos:8 99;
  write_bytes path (Bytes.to_string b);
  match load_error "future version" path with
  | S.Version_skew { found } -> check "reports the found version" 99 found
  | e -> Alcotest.failf "expected Version_skew, got %s" (S.error_to_string e)

let test_payload_corruption () =
  let dir = tmp_dir () in
  let h = H.create ~n_vertices:5 [ [ 0; 1; 2 ]; [ 2; 3; 4 ] ] in
  let path = pack_to dir "payload.hgsnap" h in
  let size = String.length (read_bytes path) in
  (* Flip one byte in the last section's payload. *)
  flip path (size - 3);
  (match load_error "payload flip" path with
  | S.Digest_mismatch _ -> ()
  | e -> Alcotest.failf "expected Digest_mismatch, got %s" (S.error_to_string e));
  (* Flip a stored section checksum inside the table: the table's own
     checksum catches it before any section is trusted. *)
  let path2 = pack_to dir "table.hgsnap" h in
  flip path2 (72 + 24);
  (match load_error "table flip" path2 with
  | S.Digest_mismatch "header" -> ()
  | e ->
    Alcotest.failf "expected Digest_mismatch header, got %s" (S.error_to_string e));
  (* Flip a count field: also covered by the table checksum. *)
  let path3 = pack_to dir "count.hgsnap" h in
  flip path3 24;
  match load_error "count flip" path3 with
  | S.Digest_mismatch "header" -> ()
  | e ->
    Alcotest.failf "expected Digest_mismatch header, got %s" (S.error_to_string e)

let test_identity_corruption () =
  (* The identity is trusted on load (it is not a corruption check;
     the per-section checksums are) but verify recomputes it. *)
  let dir = tmp_dir () in
  let h = H.create ~n_vertices:3 [ [ 0; 1; 2 ] ] in
  let path = pack_to dir "identity.hgsnap" h in
  let b = Bytes.of_string (read_bytes path) in
  Bytes.set b 50 (Char.chr (Char.code (Bytes.get b 50) lxor 0x40));
  (* Restore the table checksum over the altered header so only the
     identity is inconsistent. *)
  let count = Option.get (Hp_util.Binary.get_int_le b ~pos:64) in
  let table_end = 72 + (32 * count) + 8 in
  Hp_util.Binary.set_i64_le b ~pos:(table_end - 8)
    (Int64.of_int
       (Hp_util.Binary.hash64 Hp_util.Binary.hash64_seed b ~pos:0
          ~len:(table_end - 8)));
  write_bytes path (Bytes.to_string b);
  checkb "load accepts" true (Result.is_ok (S.load path));
  match S.verify path with
  | Error (S.Digest_mismatch "identity") -> ()
  | Error e -> Alcotest.failf "expected identity mismatch, got %s" (S.error_to_string e)
  | Ok _ -> Alcotest.fail "verify should reject a forged identity"

let test_load_never_raises () =
  (* Fuzz bit flips across the whole file: every mutation must come
     back as a typed error or a (differently) valid snapshot. *)
  let dir = tmp_dir () in
  let h = H.create ~n_vertices:6 [ [ 0; 1; 2 ]; [ 3; 4 ]; [ 0; 5 ] ] in
  let path = pack_to dir "fuzz.hgsnap" h in
  let whole = read_bytes path in
  let target = Filename.concat dir "fuzzed.hgsnap" in
  let rng = Hp_util.Prng.create 42 in
  for _ = 1 to 200 do
    let b = Bytes.of_string whole in
    let at = Hp_util.Prng.int rng (Bytes.length b) in
    Bytes.set b at (Char.chr (Hp_util.Prng.int rng 256));
    write_bytes target (Bytes.to_string b);
    match S.read target with
    | Ok _ | Error _ -> ()
  done

let test_missing_file () =
  let dir = tmp_dir () in
  match load_error "absent" (Filename.concat dir "absent.hgsnap") with
  | S.Io _ -> ()
  | e -> Alcotest.failf "expected Io, got %s" (S.error_to_string e)

(* ---------- kernel bit-identity ---------- *)

let example_datasets () =
  let cellzome = (Hp_data.Cellzome.generate ~seed:2004 ()).hypergraph in
  let mm =
    MM.synthetic_suite ~seed:2004 ()
    |> List.filter_map (fun (name, m) ->
           (* Keep the test suite fast: the path sweep below is all-pairs. *)
           if MM.nnz m <= 30000 then Some (name, MM.to_hypergraph m) else None)
  in
  ("cellzome", cellzome) :: mm

let test_kernels_bit_identical () =
  let dir = tmp_dir () in
  List.iter
    (fun (name, h) ->
      let path = pack_to dir (name ^ ".hgsnap") h in
      let h' = expect_hypergraph name (S.read path) in
      checkb (name ^ ": structure") true (H.equal_structure h h');
      List.iter
        (fun domains ->
          let d = HC.decompose ~domains h and d' = HC.decompose ~domains h' in
          check
            (Printf.sprintf "%s: max core at %d domains" name domains)
            d.HC.max_core d'.HC.max_core;
          checkb
            (Printf.sprintf "%s: vertex cores at %d domains" name domains)
            true (d.HC.vertex_core = d'.HC.vertex_core);
          checkb
            (Printf.sprintf "%s: edge cores at %d domains" name domains)
            true (d.HC.edge_core = d'.HC.edge_core);
          let k, r = HC.max_core ~domains h and k', r' = HC.max_core ~domains h' in
          check (Printf.sprintf "%s: k_core index" name) k k';
          checkb (Printf.sprintf "%s: k_core members" name) true
            (r.HC.vertex_ids = r'.HC.vertex_ids && r.HC.edge_ids = r'.HC.edge_ids))
        [ 1; 2; 7 ])
    (example_datasets ())

let test_paths_bit_identical () =
  let h = (Hp_data.Cellzome.generate ~seed:2004 ()).hypergraph in
  let dir = tmp_dir () in
  let path = pack_to dir "paths.hgsnap" h in
  let h' = expect_hypergraph "read" (S.read path) in
  List.iter
    (fun domains ->
      let d, apl = HP.diameter_and_average_path ~domains h in
      let d', apl' = HP.diameter_and_average_path ~domains h' in
      check (Printf.sprintf "diameter at %d domains" domains) d d';
      checkb (Printf.sprintf "average path at %d domains" domains) true
        (apl = apl'))
    [ 1; 2; 7 ]

let () =
  Alcotest.run "hp_snapshot"
    [
      ( "round-trip",
        [
          Alcotest.test_case "named dataset" `Quick test_round_trip_named;
          Alcotest.test_case "unnamed dataset" `Quick test_round_trip_unnamed;
          Alcotest.test_case "degenerate shapes" `Quick test_round_trip_degenerate;
          Alcotest.test_case "matrix-market dataset" `Quick test_round_trip_mtx;
          Alcotest.test_case "hostile names" `Quick test_weird_names;
          Alcotest.test_case "paper instance identities pinned" `Quick
            test_identities_pinned;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "truncation" `Quick test_truncation;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "version skew" `Quick test_version_skew;
          Alcotest.test_case "payload and table damage" `Quick test_payload_corruption;
          Alcotest.test_case "identity forgery" `Quick test_identity_corruption;
          Alcotest.test_case "bit-flip fuzz never raises" `Quick test_load_never_raises;
          Alcotest.test_case "missing file" `Quick test_missing_file;
        ] );
      ( "bit-identity",
        [
          Alcotest.test_case "decompose and k-core at 1/2/7 domains" `Slow
            test_kernels_bit_identical;
          Alcotest.test_case "path kernel at 1/2/7 domains" `Slow
            test_paths_bit_identical;
        ] );
    ]
