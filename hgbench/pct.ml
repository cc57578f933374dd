(* Sample buffers and percentiles.

   Percentiles are nearest-rank over the sorted sample.  A tail
   percentile is only reported where at least ten samples lie beyond
   it: below 1000 samples the "p99" falls back to the highest rank that
   still has ten samples above it (never below the median). *)

type buf = { mutable a : float array; mutable n : int }

let buf () = { a = Array.make 256 0.0; n = 0 }

let add b x =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0.0 in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  b.a.(b.n) <- x;
  b.n <- b.n + 1

let length b = b.n

let sorted b =
  let s = Array.sub b.a 0 b.n in
  Array.sort Float.compare s;
  s

(* The samples added since the buffer held [from], sorted. *)
let sorted_since b from =
  let s = Array.sub b.a from (b.n - from) in
  Array.sort Float.compare s;
  s

let sum b =
  let s = ref 0.0 in
  for i = 0 to b.n - 1 do s := !s +. b.a.(i) done;
  !s

let mean b = if b.n = 0 then 0.0 else sum b /. float_of_int b.n

(* Index of the nearest-rank p-th percentile (0 < p <= 100) in a sorted
   sample of size n >= 1. *)
let rank_index n p =
  let i = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
  max 0 (min (n - 1) i)

let tail_index n = max (rank_index n 50.0) (min (rank_index n 99.0) (n - 11))

(* [percentile s p] on a sorted sample; 0 for an empty one. *)
let percentile s p =
  if Array.length s = 0 then 0.0 else s.(rank_index (Array.length s) p)

let median s = percentile s 50.0

(* The reported tail of a sorted sample: p99 under the ten-beyond rule. *)
let tail s = if Array.length s = 0 then 0.0 else s.(tail_index (Array.length s))

(* The percentile [tail] actually read, for the human summary. *)
let tail_percentile n =
  if n = 0 then 0.0 else 100.0 *. float_of_int (tail_index n + 1) /. float_of_int n
