(** Incremental maintenance of {!Hypergraph_core.decomposition} across
    a mutation stream (DESIGN.md sections 13 and 15).

    A maintainer owns the current hypergraph and its decomposition.
    Each mutation repairs the decomposition instead of re-peeling.
    The repair ladder has two rungs:

    - the subcore cascade: bound the band of core levels the mutation
      can disturb, rebuild the peel boundary at the band floor B
      (vertices with core >= B, hyperedges with core >= B restricted
      to them), collect the overlap component(s) of the mutation
      inside that boundary, and resume the canonical sweep from level
      B on just that region ({!Hypergraph_core.resume_peel}).  Repair
      cost is O(affected subcore).
    - the full re-peel, taken when the cascade has no sound band floor
      above 0 (containment involving the mutated hyperedge,
      resurfacing a previously non-maximal hyperedge, a member of core
      0 — or, for a deletion, a member whose floor drops to 0), when
      an empty hyperedge exists anywhere (its survival is a
      whole-hypergraph property in {!Hypergraph_reduce}), or when the
      cascade region exceeds the budget; the last case is additionally
      counted in [budget_fallbacks].

    An appended vertex is isolated, so {!add_vertex} is an O(1)
    append and never reaches the ladder.

    The maintained decomposition is bit-identical to
    [Hypergraph_core.decompose ~domains:1] of the current hypergraph
    after every mutation and after every batch (differential-tested
    across randomized and adversarial schedules in test_kcore_inc.ml).
    Published {!decomposition} records are immutable: every repair
    installs fresh arrays (or shares provably-unchanged ones), so a
    reader holding a snapshot is never affected by later mutations. *)

type t

type stats = {
  mutable cascade_repairs : int;
      (** Mutations (or batches) absorbed by a subcore cascade. *)
  mutable incremental_repairs : int;
      (** Isolated-vertex appends ({!add_vertex}), each O(1). *)
  mutable repair_visited : int;
      (** Total vertices + hyperedges visited across all repairs. *)
  mutable full_repeels : int;
      (** Mutations (or batches) that fell back to a full re-peel
          (structural bail, floor 0, budget blown, or empty-hyperedge
          special case). *)
  mutable budget_fallbacks : int;
      (** The subset of [full_repeels] forced by a blown region
          budget. *)
}

type outcome =
  | Cascade of int      (** subcore region size visited *)
  | Incremental of int  (** isolated-vertex append; always 1 *)
  | Repeel

(** A mutation shape for {!apply_batch}: the structural effect only —
    members are recovered from the [after] hypergraph, so callers
    replaying a WAL or applying a burst need not carry payloads. *)
type op = Op_add_vertex | Op_add_edge | Op_del_edge of int

val create : ?budget:int -> Hypergraph.t -> t
(** Full initial peel.  [budget] (default 4096) bounds the vertices +
    hyperedges a repair may visit before falling back to a full
    re-peel. *)

val decomposition : t -> Hypergraph_core.decomposition
(** The current decomposition — an immutable snapshot record. *)

val hypergraph : t -> Hypergraph.t
(** The hypergraph the current decomposition describes. *)

val stats : t -> stats

val budget : t -> int

val add_vertex : t -> after:Hypergraph.t -> outcome
(** The mutated hypergraph [after] must be the maintainer's current
    hypergraph with exactly one (isolated) vertex appended; O(1)
    repair plus the array copy.  Returns [Incremental 1]. *)

val add_edge : t -> after:Hypergraph.t -> outcome
(** [after] = current hypergraph with exactly one hyperedge appended
    (members over existing vertices).  The one-op case of
    {!apply_batch}. *)

val del_edge : t -> after:Hypergraph.t -> edge:int -> outcome
(** [after] = current hypergraph with hyperedge [edge] removed and
    later hyperedge ids shifted down by one (the WAL replay state's
    deletion semantics).  The one-op case of {!apply_batch}. *)

val apply_batch : t -> after:Hypergraph.t -> ops:op list -> outcome
(** Apply a whole burst of mutations with one repair: [after] must be
    the maintainer's current hypergraph with [ops] applied in order
    (vertex and hyperedge appends at the end, deletions shifting later
    hyperedge ids down — Wal_live semantics).  One band, one region,
    one resumed sweep, so WAL-replay recovery and rewiring bursts
    amortize the repair cost across the batch.  A batch the cascade
    cannot absorb takes one full re-peel.  A lone [Op_add_vertex] is
    {!add_vertex}. *)
