(* Monotonic time in seconds with nanosecond resolution: every interval
   the benchmark reports is measured on this clock, so a sub-millisecond
   round trip is not quantized to whole microseconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
