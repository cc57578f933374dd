(** Per-request tracing: every request gets a trace id and a span per
    pipeline stage — queue wait (framed to worker pickup), parse,
    cache lookup, compute, reply write — and finished traces land in a
    bounded ring.  [TRACE \[n\]] answers with the slowest retained
    requests, so "why was that slow?" is answerable without restarting
    the daemon with profiling on.

    A collector is shared by all workers (mutex-serialized ring pushes,
    atomic id allocation); an {!active} trace belongs to the single
    worker serving the request and needs no locking. *)

type stage = Queue | Parse | Cache | Compute | Write

val stage_name : stage -> string
(** ["queue"], ["parse"], ["cache"], ["compute"], ["write"] — the span
    names used in logs and the [TRACE] payload. *)

type record = {
  id : int;             (** process-unique, monotonically increasing *)
  request : string;     (** request line, truncated to 200 bytes *)
  status : string;      (** ["ok"], ["err-<code>"], or ["write-error"] *)
  started_at : float;   (** epoch seconds at worker pickup *)
  total_us : int;       (** queue wait + service time, microseconds *)
  queue_us : int;
  parse_us : int;
  cache_us : int;
  compute_us : int;
  write_us : int;
  cached : bool;        (** answered from the result cache *)
}

type active

type t

val create : ?capacity:int -> unit -> t
(** Ring of the [capacity] (default 256) most recent finished traces. *)

val start : t -> ?queue_us:int -> request:string -> unit -> active
(** Allocate a trace id and start the clock.  [queue_us] is the wait
    from the request being framed to worker pickup, measured by the
    caller before [start]. *)

val id : active -> int

val set_cached : active -> bool -> unit

val timed : active -> stage -> (unit -> 'a) -> 'a
(** Run a closure, adding its wall time to the stage's span.  Re-entry
    accumulates; an exception is re-raised after charging the time. *)

val finish : t -> active -> status:string -> record
(** Seal the trace (total = queue wait + elapsed since [start]) and
    push it into the ring, returning the sealed record. *)

val recent : t -> int -> record list
(** Up to [n] most recent finished traces, newest first. *)

val slowest : t -> int -> record list
(** Up to [n] retained traces by decreasing [total_us]. *)
