module H = Hp_hypergraph.Hypergraph
module B = Hp_util.Binary

(* On-disk layout (DESIGN.md §11), all integers little-endian u64:

     0   8    magic "HGSNAP\r\n"
     8   8    format version
     16  8    flags (bit0 = vertex names, bit1 = edge names)
     24  8    n_vertices
     32  8    n_edges
     40  8    incidence (|E|)
     48  16   identity: MD5 over the section payloads in table order
     64  8    section count c
     72  32c  section table: kind, offset, length, checksum
     72+32c 8 table checksum over bytes [0, 72+32c)
     ...      section payloads, each 8-byte aligned, blobs zero-padded

   Offset sections (CSR prefix sums, name offsets) are u64 words; the
   two incidence value sections (edge_members, vertex_adj) are u32 —
   vertex and edge ids are bounded by 2^31 at pack time, and halving
   the dominant sections halves what a load must fault in and
   checksum.  Name blobs are raw bytes.

   Section checksums are the word-folding Binary.hash64_words over the
   8-byte-aligned extent (true payload plus its zero padding), so
   verification costs one multiply per word, not per byte; the header
   table keeps the byte-wise Binary.hash64 since it is tiny.  The MD5
   identity covers the true-length payloads only, so identities are
   independent of padding.

   The '\r\n' in the magic catches newline-translating transports the
   same way PNG's does. *)

let magic = "HGSNAP\r\n"
let version = 1
let header_fixed = 72
let entry_bytes = 32
let max_sections = 64

let flag_vertex_names = 1
let flag_edge_names = 2

let kind_edge_off = 1
let kind_edge_members = 2
let kind_vertex_off = 3
let kind_vertex_adj = 4
let kind_vertex_name_off = 5
let kind_vertex_name_blob = 6
let kind_edge_name_off = 7
let kind_edge_name_blob = 8

let kind_name = function
  | 1 -> "edge_off"
  | 2 -> "edge_members"
  | 3 -> "vertex_off"
  | 4 -> "vertex_adj"
  | 5 -> "vertex_name_off"
  | 6 -> "vertex_name_blob"
  | 7 -> "edge_name_off"
  | 8 -> "edge_name_blob"
  | k -> "section" ^ string_of_int k

type error =
  | Io of string
  | Truncated of { what : string; expected : int; got : int }
  | Bad_magic
  | Version_skew of { found : int }
  | Digest_mismatch of string
  | Malformed of string

let error_to_string = function
  | Io msg -> "io: " ^ msg
  | Truncated { what; expected; got } ->
    Printf.sprintf "truncated: %s needs %d bytes, file has %d" what expected got
  | Bad_magic -> "bad magic: not a hyperprot snapshot"
  | Version_skew { found } ->
    Printf.sprintf "version skew: format %d, this build reads %d" found version
  | Digest_mismatch what -> Printf.sprintf "digest mismatch in %s" what
  | Malformed msg -> "malformed: " ^ msg

type i64_array =
  (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

type i32_array =
  (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type char_array =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  path : string;
  identity : string;
  n_vertices : int;
  n_edges : int;
  incidence : int;
  file_bytes : int;
  edge_off : i64_array;
  edge_members : i32_array;
  vertex_off : i64_array;
  vertex_adj : i32_array;
  vertex_names : string array option;
  edge_names : string array option;
  sections : (string * int * int) list;
}

type pack_info = { identity : string; bytes : int }

let file_extension = ".hgsnap"
let sibling_path path = Filename.remove_extension path ^ file_extension

(* ---------- pack ---------- *)

let i64_payload n fill =
  let b = Bytes.create (8 * n) in
  for i = 0 to n - 1 do
    B.set_int_le b ~pos:(8 * i) (fill i)
  done;
  b

let offsets_payload n size =
  (* n+1 prefix sums of [size]. *)
  let acc = ref 0 in
  i64_payload (n + 1) (fun i ->
      if i > 0 then acc := !acc + size (i - 1);
      !acc)

let name_payloads names =
  let n = Array.length names in
  let blob = Buffer.create 256 in
  let off =
    i64_payload (n + 1) (fun i ->
        if i > 0 then Buffer.add_string blob names.(i - 1);
        Buffer.length blob)
  in
  (off, Buffer.to_bytes blob)

let align8 n = (n + 7) land lnot 7

let pack h path =
  let nv = H.n_vertices h and ne = H.n_edges h in
  if nv > 0x7FFFFFFF || ne > 0x7FFFFFFF then
    invalid_arg "Snapshot.pack: id spaces beyond 2^31 do not fit u32 sections";
  let inc = H.total_incidence h in
  let member e i = (H.edge_members h e).(i) in
  let incident v i = (H.vertex_edges h v).(i) in
  let edge_off = offsets_payload ne (H.edge_size h) in
  let edge_members =
    let b = Bytes.create (4 * inc) in
    let pos = ref 0 in
    for e = 0 to ne - 1 do
      for i = 0 to H.edge_size h e - 1 do
        B.set_u32_le b ~pos:!pos (member e i);
        pos := !pos + 4
      done
    done;
    b
  in
  let vertex_off = offsets_payload nv (H.vertex_degree h) in
  let vertex_adj =
    let b = Bytes.create (4 * inc) in
    let pos = ref 0 in
    for v = 0 to nv - 1 do
      for i = 0 to H.vertex_degree h v - 1 do
        B.set_u32_le b ~pos:!pos (incident v i);
        pos := !pos + 4
      done
    done;
    b
  in
  let vnames = H.vertex_names_opt h in
  let enames = H.edge_names_opt h in
  let sections =
    [ (kind_edge_off, edge_off);
      (kind_edge_members, edge_members);
      (kind_vertex_off, vertex_off);
      (kind_vertex_adj, vertex_adj) ]
    @ (match vnames with
      | None -> []
      | Some names ->
        let off, blob = name_payloads names in
        [ (kind_vertex_name_off, off); (kind_vertex_name_blob, blob) ])
    @
    match enames with
    | None -> []
    | Some names ->
      let off, blob = name_payloads names in
      [ (kind_edge_name_off, off); (kind_edge_name_blob, blob) ]
  in
  let count = List.length sections in
  let table_end = header_fixed + (entry_bytes * count) + 8 in
  let identity =
    Digest.string
      (String.concat "" (List.map (fun (_, p) -> Bytes.unsafe_to_string p) sections))
  in
  (* (kind, true length, zero-padded payload): the file stores and
     checksums the padded extent, the table records the true length. *)
  let padded =
    List.map
      (fun (kind, payload) ->
        let len = Bytes.length payload in
        if len land 7 = 0 then (kind, len, payload)
        else begin
          let p = Bytes.make (align8 len) '\000' in
          Bytes.blit payload 0 p 0 len;
          (kind, len, p)
        end)
      sections
  in
  let flags =
    (if vnames <> None then flag_vertex_names else 0)
    lor (if enames <> None then flag_edge_names else 0)
  in
  let head = Bytes.make table_end '\000' in
  Bytes.blit_string magic 0 head 0 8;
  B.set_int_le head ~pos:8 version;
  B.set_int_le head ~pos:16 flags;
  B.set_int_le head ~pos:24 nv;
  B.set_int_le head ~pos:32 ne;
  B.set_int_le head ~pos:40 inc;
  Bytes.blit_string identity 0 head 48 16;
  B.set_int_le head ~pos:64 count;
  let offset = ref table_end in
  List.iteri
    (fun i (kind, len, payload) ->
      let pos = header_fixed + (entry_bytes * i) in
      B.set_int_le head ~pos kind;
      B.set_int_le head ~pos:(pos + 8) !offset;
      B.set_int_le head ~pos:(pos + 16) len;
      B.set_i64_le head ~pos:(pos + 24)
        (Int64.of_int
           (B.hash64_words B.hash64_seed payload ~pos:0
              ~len:(Bytes.length payload)));
      offset := !offset + Bytes.length payload)
    padded;
  B.set_i64_le head ~pos:(table_end - 8)
    (Int64.of_int (B.hash64 B.hash64_seed head ~pos:0 ~len:(table_end - 8)));
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_bytes oc head;
     List.iter (fun (_, _, payload) -> output_bytes oc payload) padded;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  { identity = Digest.to_hex identity; bytes = !offset }

(* ---------- load ---------- *)

let ( let* ) = Result.bind

(* Word-folding checksums over mapped views, mirroring
   B.hash64_words.  Three flavors so each section is verified through
   the same mapping its consumer reads later — checksumming faults the
   pages in exactly once, instead of once per mapping.  The caller has
   bounds-checked the section against the file size, which justifies
   unsafe_get; splitting words with to_int/logand/shift keeps
   everything in primitives the compiler leaves unboxed, so verifying
   megabytes costs one load and one serial multiply per word. *)
let hash64_words_i64 (w : i64_array) ~pos_words ~count_words =
  let h = ref B.hash64_seed in
  for j = pos_words to pos_words + count_words - 1 do
    let x = Bigarray.Array1.unsafe_get w j in
    let lo = Int64.to_int (Int64.logand x 0xFFFFFFFFL) in
    let hi = Int64.to_int (Int64.shift_right_logical x 32) in
    h := B.hash64_word !h ~lo ~hi
  done;
  !h

let hash64_words_i32 (m : i32_array) ~pos_elts ~count_words =
  let h = ref B.hash64_seed in
  for j = 0 to count_words - 1 do
    let p = pos_elts + (2 * j) in
    let lo = Int32.to_int (Bigarray.Array1.unsafe_get m p) land 0xFFFFFFFF in
    let hi =
      Int32.to_int (Bigarray.Array1.unsafe_get m (p + 1)) land 0xFFFFFFFF
    in
    h := B.hash64_word !h ~lo ~hi
  done;
  !h

let hash64_words_char (m : char_array) ~pos ~count_words =
  let h = ref B.hash64_seed in
  for j = 0 to count_words - 1 do
    let p = pos + (8 * j) in
    let lo =
      Char.code (Bigarray.Array1.unsafe_get m p)
      lor (Char.code (Bigarray.Array1.unsafe_get m (p + 1)) lsl 8)
      lor (Char.code (Bigarray.Array1.unsafe_get m (p + 2)) lsl 16)
      lor (Char.code (Bigarray.Array1.unsafe_get m (p + 3)) lsl 24)
    in
    let hi =
      Char.code (Bigarray.Array1.unsafe_get m (p + 4))
      lor (Char.code (Bigarray.Array1.unsafe_get m (p + 5)) lsl 8)
      lor (Char.code (Bigarray.Array1.unsafe_get m (p + 6)) lsl 16)
      lor (Char.code (Bigarray.Array1.unsafe_get m (p + 7)) lsl 24)
    in
    h := B.hash64_word !h ~lo ~hi
  done;
  !h

let bytes_of_map (m : char_array) pos len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set b i (Bigarray.Array1.unsafe_get m (pos + i))
  done;
  b

let empty_i64 : i64_array = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 0
let empty_i32 : i32_array = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout 0
let empty_char : char_array = Bigarray.Array1.create Bigarray.char Bigarray.c_layout 0

(* Exactly one mapping per section, at the width its consumer reads:
   the checksum pass then faults each page in once and the view handed
   out reuses it, and the GC's off-heap accounting sees ~file_size of
   mapped memory instead of a multiple of it (mapped bigarrays are
   custom blocks, and over-accounting them forces major collections).
   Unix.map_file accepts the 8-aligned (not page-aligned) section
   offsets; it maps from the containing page boundary internally. *)
let map_i64 fd ~pos ~count : i64_array =
  if count = 0 then empty_i64
  else
    Bigarray.array1_of_genarray
      (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.int64 Bigarray.c_layout
         false [| count |])

let map_i32 fd ~pos ~count : i32_array =
  if count = 0 then empty_i32
  else
    Bigarray.array1_of_genarray
      (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.int32 Bigarray.c_layout
         false [| count |])

let map_char fd ~pos ~count : char_array =
  if count = 0 then empty_char
  else
    Bigarray.array1_of_genarray
      (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.char Bigarray.c_layout
         false [| count |])

let field_int head ~pos ~what =
  match B.get_int_le head ~pos with
  | Some v -> Ok v
  | None -> Error (Malformed (what ^ " out of range"))

(* Parsed section table entry (checksums are verified on the way in,
   not retained). *)
type entry = { kind : int; offset : int; length : int }

(* A section's mapping, at the width its kind is consumed at. *)
type view = V64 of i64_array | V32 of i32_array | VChar of char_array

let bytes_of_words (w : i64_array) len =
  let b = Bytes.create len in
  for j = 0 to (len / 8) - 1 do
    B.set_i64_le b ~pos:(8 * j) (Bigarray.Array1.get w j)
  done;
  b

let materialize_names ~what ~count (off : Bytes.t) (blob : Bytes.t) =
  if Bytes.length off <> 8 * (count + 1) then
    Error (Malformed (Printf.sprintf "%s_off has wrong length" what))
  else begin
    let bad = ref None in
    let prev = ref 0 in
    let offs =
      Array.init (count + 1) (fun i ->
          match B.get_int_le off ~pos:(8 * i) with
          | Some v when v >= !prev && v <= Bytes.length blob ->
            prev := v;
            v
          | _ ->
            bad := Some (Malformed (what ^ " offsets not monotone in blob"));
            0)
    in
    match !bad with
    | Some e -> Error e
    | None ->
      if offs.(count) <> Bytes.length blob then
        Error (Malformed (what ^ " blob length disagrees with offsets"))
      else
        Ok (Array.init count (fun i ->
                Bytes.sub_string blob offs.(i) (offs.(i + 1) - offs.(i))))
  end

let load path =
  if Sys.big_endian then
    Error (Malformed "big-endian hosts cannot map little-endian snapshots")
  else
    match Unix.openfile path [ Unix.O_RDONLY ] 0 with
    | exception Unix.Unix_error (err, _, _) ->
      Error (Io (path ^ ": " ^ Unix.error_message err))
    | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let size = (Unix.fstat fd).Unix.st_size in
          if size < header_fixed then
            Error (Truncated { what = "header"; expected = header_fixed; got = size })
          else begin
            let head =
              bytes_of_map (map_char fd ~pos:0 ~count:header_fixed) 0 header_fixed
            in
            if Bytes.sub_string head 0 8 <> magic then Error Bad_magic
            else begin
              let v64 = B.get_i64_le head ~pos:8 in
              if v64 <> Int64.of_int version then
                Error (Version_skew { found = Int64.to_int v64 })
              else
                let* flags = field_int head ~pos:16 ~what:"flags" in
                let* nv = field_int head ~pos:24 ~what:"n_vertices" in
                let* ne = field_int head ~pos:32 ~what:"n_edges" in
                let* inc = field_int head ~pos:40 ~what:"incidence" in
                let identity = Digest.to_hex (Bytes.sub_string head 48 16) in
                let* count = field_int head ~pos:64 ~what:"section count" in
                if count < 4 || count > max_sections then
                  Error (Malformed (Printf.sprintf "section count %d" count))
                else begin
                  let table_end = header_fixed + (entry_bytes * count) + 8 in
                  if size < table_end then
                    Error
                      (Truncated
                         { what = "section table"; expected = table_end; got = size })
                  else begin
                    let table =
                      bytes_of_map (map_char fd ~pos:0 ~count:table_end) 0
                        table_end
                    in
                    let stored =
                      Int64.to_int (B.get_i64_le table ~pos:(table_end - 8))
                    in
                    if
                      B.hash64 B.hash64_seed table ~pos:0 ~len:(table_end - 8)
                      <> stored
                    then Error (Digest_mismatch "header")
                    else begin
                      (* Parse and byte-validate every table entry, known
                         kind or not: alignment, bounds, checksum. *)
                      let rec entries i acc =
                        if i >= count then Ok (List.rev acc)
                        else
                          let pos = header_fixed + (entry_bytes * i) in
                          let* kind = field_int table ~pos ~what:"section kind" in
                          let* offset =
                            field_int table ~pos:(pos + 8) ~what:"section offset"
                          in
                          let* length =
                            field_int table ~pos:(pos + 16) ~what:"section length"
                          in
                          let checksum =
                            Int64.to_int (B.get_i64_le table ~pos:(pos + 24))
                          in
                          if offset land 7 <> 0 then
                            Error
                              (Malformed
                                 (kind_name kind ^ " section is not 8-byte aligned"))
                          else if offset < table_end then
                            Error
                              (Malformed
                                 (kind_name kind ^ " section overlaps the header"))
                          else if
                            (* The padded extent must fit: the file
                               stores (and checksums) align8 length
                               bytes per section. *)
                            length > max_int - 7 || align8 length > size - offset
                          then
                            Error
                              (Truncated
                                 {
                                   what = kind_name kind;
                                   expected = offset + align8 length;
                                   got = size;
                                 })
                          else begin
                            let words = align8 length / 8 in
                            let v =
                              if
                                kind = kind_edge_members
                                || kind = kind_vertex_adj
                              then
                                V32 (map_i32 fd ~pos:offset ~count:(2 * words))
                              else if
                                kind = kind_vertex_name_blob
                                || kind = kind_edge_name_blob
                              then
                                VChar (map_char fd ~pos:offset ~count:(8 * words))
                              else V64 (map_i64 fd ~pos:offset ~count:words)
                            in
                            let computed =
                              match v with
                              | V64 m ->
                                hash64_words_i64 m ~pos_words:0 ~count_words:words
                              | V32 m ->
                                hash64_words_i32 m ~pos_elts:0 ~count_words:words
                              | VChar m ->
                                hash64_words_char m ~pos:0 ~count_words:words
                            in
                            if computed <> checksum then
                              Error (Digest_mismatch (kind_name kind))
                            else
                              entries (i + 1) (({ kind; offset; length }, v) :: acc)
                          end
                      in
                      let* entries = entries 0 [] in
                      let find kind =
                        List.find_opt (fun (e, _) -> e.kind = kind) entries
                      in
                      let section kind ~bytes =
                        match find kind with
                        | None ->
                          Error
                            (Malformed ("missing section " ^ kind_name kind))
                        | Some (e, v) ->
                          if e.length <> bytes then
                            Error
                              (Malformed
                                 (Printf.sprintf "%s has %d bytes, expected %d"
                                    (kind_name kind) e.length bytes))
                          else Ok v
                      in
                      let required64 kind ~count:n =
                        let* v = section kind ~bytes:(8 * n) in
                        match v with
                        | V64 m -> Ok m
                        | V32 _ | VChar _ ->
                          Error (Malformed (kind_name kind ^ " view width"))
                      in
                      let required32 kind ~count:n =
                        let* v = section kind ~bytes:(4 * n) in
                        match v with
                        | V32 m ->
                          Ok
                            (if Bigarray.Array1.dim m = n then m
                             else Bigarray.Array1.sub m 0 n)
                        | V64 _ | VChar _ ->
                          Error (Malformed (kind_name kind ^ " view width"))
                      in
                      let* edge_off = required64 kind_edge_off ~count:(ne + 1) in
                      let* edge_members =
                        required32 kind_edge_members ~count:inc
                      in
                      let* vertex_off = required64 kind_vertex_off ~count:(nv + 1) in
                      let* vertex_adj = required32 kind_vertex_adj ~count:inc in
                      let names flag off_kind blob_kind ~count:n ~what =
                        if flags land flag = 0 then Ok None
                        else
                          match (find off_kind, find blob_kind) with
                          | Some (off_e, V64 off_m), Some (blob_e, VChar blob_m)
                            ->
                            let* arr =
                              materialize_names ~what ~count:n
                                (bytes_of_words off_m off_e.length)
                                (bytes_of_map blob_m 0 blob_e.length)
                            in
                            Ok (Some arr)
                          | _ ->
                            Error
                              (Malformed
                                 ("flags announce " ^ what ^ " but sections are missing"))
                      in
                      let* vertex_names =
                        names flag_vertex_names kind_vertex_name_off
                          kind_vertex_name_blob ~count:nv ~what:"vertex names"
                      in
                      let* edge_names =
                        names flag_edge_names kind_edge_name_off
                          kind_edge_name_blob ~count:ne ~what:"edge names"
                      in
                      Ok
                        {
                          path;
                          identity;
                          n_vertices = nv;
                          n_edges = ne;
                          incidence = inc;
                          file_bytes = size;
                          edge_off;
                          edge_members;
                          vertex_off;
                          vertex_adj;
                          vertex_names;
                          edge_names;
                          sections =
                            List.map
                              (fun (e, _) -> (kind_name e.kind, e.offset, e.length))
                              entries;
                        }
                    end
                  end
                end
            end
          end)

(* ---------- materialization ---------- *)

exception Bad of error

let rows (off : i64_array) (data : i32_array) ~count ~total ~max_value ~what =
  (* Expand CSR (offsets, values) into per-row arrays, checking the
     offsets are a monotone [0 .. total] cover and every value fits
     [0, max_value).  This is the hot half of an mmap load, so the
     checks are branchless unsigned compares against precomputed
     bounds; unsafe_get is in range because [load] already verified
     the section lengths ([off] has count+1 words, [data] has [total]
     and every index stays below a validated offset). *)
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad (Malformed m))) fmt in
  (* [Int64.to_int] keeps the low 63 bits; together with an explicit
     bit-63 test that is a full unsigned range check, built only from
     primitives the compiler keeps unboxed (no per-element Int64
     allocation, unlike Int64.unsigned_compare which is a call). *)
  let get_off i =
    let w = Bigarray.Array1.unsafe_get off i in
    let v = Int64.to_int w in
    if v < 0 || v > total || Int64.to_int (Int64.shift_right_logical w 63) <> 0
    then bad "%s offset out of range" what;
    v
  in
  if get_off 0 <> 0 then bad "%s offsets do not start at 0" what;
  if get_off count <> total then bad "%s offsets do not cover the section" what;
  Array.init count (fun r ->
      let lo = get_off r and hi = get_off (r + 1) in
      if lo > hi then bad "%s offsets not monotone" what;
      let n = hi - lo in
      let row = Array.make n 0 in
      (* A stored u32 in [2^31, 2^32) reads back negative through
         int32, so strict-increase from a previous value of -1 plus an
         upper bound is the full unsigned-range-and-monotone check.  It
         folds branchlessly into a sign accumulator: [v - prev - 1] is
         negative whenever the row stops strictly increasing (which
         subsumes v < 0), [max_value - 1 - v] whenever v escapes the
         range, and neither subtraction can overflow 63-bit ints.  The
         accumulators ride tail-recursive arguments, not refs, so they
         stay in registers.  Checking monotonicity here lets
         [to_hypergraph] hand the rows to the trusted constructor
         without a second scan. *)
      let rec fill i prev flags =
        if i = n then flags
        else begin
          let v = Int32.to_int (Bigarray.Array1.unsafe_get data (lo + i)) in
          Array.unsafe_set row i v;
          fill (i + 1) v (flags lor (v - prev - 1) lor (max_value - 1 - v))
        end
      in
      if fill 0 (-1) 0 < 0 then begin
        (* Cold path: rescan for the precise diagnostic. *)
        let prev = ref (-1) in
        Array.iter
          (fun v ->
            if v < 0 || v >= max_value then bad "%s value out of range" what;
            if v <= !prev then bad "%s row not strictly increasing" what;
            prev := v)
          row;
        bad "%s row invalid" what
      end;
      row)

let to_hypergraph t =
  match
    let edges =
      rows t.edge_off t.edge_members ~count:t.n_edges ~total:t.incidence
        ~max_value:t.n_vertices ~what:"edge"
    in
    let vadj =
      rows t.vertex_off t.vertex_adj ~count:t.n_vertices ~total:t.incidence
        ~max_value:t.n_edges ~what:"vertex"
    in
    (* [rows] above already proved every edge row strictly increasing
       and in range, so the constructor can skip its own scan. *)
    H.of_csr_exn ~rows_validated:true ?vertex_names:t.vertex_names
      ?edge_names:t.edge_names ~n_vertices:t.n_vertices ~edges ~vadj ()
  with
  | h -> Ok h
  | exception Bad e -> Error e
  | exception Invalid_argument msg -> Error (Malformed msg)

let read path =
  let* t = load path in
  let* h = to_hypergraph t in
  Ok (h, t)

let verify path =
  let* t = load path in
  let* _h = to_hypergraph t in
  (* Recompute the identity over the concatenated payload bytes with
     buffered reads; no need to keep the mapping alive for this. *)
  match open_in_bin path with
  | exception Sys_error msg -> Error (Io msg)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match
          let payloads = Buffer.create t.file_bytes in
          List.iter
            (fun (_, offset, length) ->
              seek_in ic offset;
              Buffer.add_channel payloads ic length)
            t.sections;
          Digest.to_hex (Digest.string (Buffer.contents payloads))
        with
        | recomputed ->
          if recomputed = t.identity then Ok t
          else Error (Digest_mismatch "identity")
        | exception End_of_file ->
          (* The file shrank between load and this re-read. *)
          Error
            (Truncated
               { what = "identity payload"; expected = t.file_bytes; got = 0 }))
