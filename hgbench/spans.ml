(* In-memory span recorder for the traced replay.

   A span is (name, request id, parent span, start, end).  Spans are
   numbered when they open, so a parent's id is always smaller than its
   children's; they are kept in growable arrays and only written out
   when the run ends.  A disabled recorder runs the wrapped call and
   records nothing, which is how the untraced replay pass (the
   denominator of the tracing-overhead ratio) is made. *)

type t = {
  enabled : bool;
  mutable names : string array;
  mutable reqs : int array;
  mutable parents : int array;
  mutable starts : float array;
  mutable stops : float array;
  mutable n : int;
  mutable stack : int list;
}

let create ~enabled =
  let cap = if enabled then 1024 else 0 in
  {
    enabled;
    names = Array.make cap "";
    reqs = Array.make cap 0;
    parents = Array.make cap 0;
    starts = Array.make cap 0.0;
    stops = Array.make cap 0.0;
    n = 0;
    stack = [];
  }

let grow t =
  let cap = max 1024 (2 * t.n) in
  let g a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- g t.names "";
  t.reqs <- g t.reqs 0;
  t.parents <- g t.parents 0;
  t.starts <- g t.starts 0.0;
  t.stops <- g t.stops 0.0

let length t = t.n

(* [with_span t ~req name f] runs [f] inside a span that is a child of
   the innermost open span. *)
let with_span t ~req name f =
  if not t.enabled then f ()
  else begin
    if t.n = Array.length t.names then grow t;
    let id = t.n in
    t.n <- id + 1;
    t.names.(id) <- name;
    t.reqs.(id) <- req;
    t.parents.(id) <- (match t.stack with p :: _ -> p | [] -> -1);
    t.stack <- id :: t.stack;
    let close () =
      t.stops.(id) <- Clock.now ();
      t.stack <- List.tl t.stack
    in
    t.starts.(id) <- Clock.now ();
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let name t i = t.names.(i)
let parent t i = t.parents.(i)
let duration t i = t.stops.(i) -. t.starts.(i)

(* Self time of every span: its duration minus the part of its interval
   covered by its children (the union of their intervals, clipped to
   the parent's). *)
let self_times t =
  let children = Array.make t.n [] in
  for i = t.n - 1 downto 0 do
    let p = t.parents.(i) in
    if p >= 0 then children.(p) <- i :: children.(p)
  done;
  Array.init t.n (fun i ->
      let lo = t.starts.(i) and hi = t.stops.(i) in
      (* Children open in id order, which is start order. *)
      let covered, _ =
        List.fold_left
          (fun (acc, reach) c ->
            let s = Float.max lo (Float.max reach t.starts.(c)) in
            let e = Float.min hi t.stops.(c) in
            if e > s then (acc +. (e -. s), e) else (acc, Float.max reach e))
          (0.0, lo) children.(i)
      in
      hi -. lo -. covered)

type agg = { calls : int; self : Pct.buf; total : float }

(* Per span name: call count, self-time sample (seconds), and summed
   duration. *)
let aggregate t =
  let self = self_times t in
  let tbl = Hashtbl.create 32 in
  for i = 0 to t.n - 1 do
    let a =
      match Hashtbl.find_opt tbl t.names.(i) with
      | Some a -> a
      | None -> { calls = 0; self = Pct.buf (); total = 0.0 }
    in
    Pct.add a.self self.(i);
    Hashtbl.replace tbl t.names.(i)
      { a with calls = a.calls + 1; total = a.total +. duration t i }
  done;
  tbl

(* One tab-separated line per span: id, request, parent, name, start
   and end in microseconds since the first span opened. *)
let write t path =
  let oc = open_out path in
  let t0 = if t.n > 0 then t.starts.(0) else 0.0 in
  let us x = Printf.sprintf "%.1f" ((x -. t0) *. 1e6) in
  output_string oc "id\treq\tparent\tname\tstart_us\tend_us\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%s\t%s\n" i t.reqs.(i) t.parents.(i)
      t.names.(i) (us t.starts.(i)) (us t.stops.(i))
  done;
  close_out oc
