(* hgbench: the hgd benchmark.

     main.exe --workload hot-read|cold-compute|write-mix --seed N
              --seconds S --trace 0|1 [--hgd PATH] [--root DIR]

   Spawns the hgd binary at PATH, drives the workload over two TCP
   connections from this one thread, checks every reply against an
   in-process oracle, and prints one JSON object as its last line of
   output: the end-to-end metrics, or with --trace 1 the per-layer
   ones.  Exits 1 when any reply was wrong or any request failed. *)

open Hgbench

let usage () =
  prerr_endline
    "usage: main.exe --workload hot-read|cold-compute|write-mix --seed N --seconds S \
     --trace 0|1 [--hgd PATH] [--root DIR]";
  exit 2

let json_number x = if Float.is_integer x then Printf.sprintf "%.1f" x else Printf.sprintf "%.17g" x

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> opts ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = opts [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "--workload" in
  if not (List.mem workload Workload.names) then usage ();
  let seed = int "--seed" and seconds = int "--seconds" in
  let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  let hgd = Option.value (List.assoc_opt "--hgd" opts) ~default:"_build/default/bin/hgd.exe" in
  let root = Option.value (List.assoc_opt "--root" opts) ~default:".hgbench_run" in
  if not (Sys.file_exists hgd) then begin
    Printf.eprintf "hgbench: no hgd binary at %s\n" hgd;
    exit 2
  end;
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  (* The in-process event loop and worker pool of a traced run log at info. *)
  Hp_util.Log.set_level Hp_util.Log.Warn;
  let r = Runner.run ~hgd ~root ~workload ~seed ~seconds ~trace () in
  let metrics =
    List.map
      (fun (name, v, unit) ->
        Printf.eprintf "hgbench: %-44s %14.4f %s\n" name v unit;
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      r.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed (String.concat ", " metrics);
  exit (if r.correct then 0 else 1)
