(** The list-based set interface shared by every algorithm in this library.

    All implementations store integers strictly between [min_int] and
    [max_int]; the two extremes are reserved for the head and tail sentinels
    (the paper's -inf / +inf).  Operations follow the sequential
    specification of the paper's §2.1:

    - [insert t v] returns [true] iff [v] was absent, and makes it present;
    - [remove t v] returns [true] iff [v] was present, and makes it absent;
    - [contains t v] returns [true] iff [v] is present.

    [to_list], [size] and [check_invariants] are test/diagnostic helpers and
    are only meaningful at quiescence (no concurrent operations). *)

module type S = sig
  type t

  val name : string
  (** Short identifier used by the CLI, the registry and benchmark output,
      e.g. ["vbl"], ["lazy"], ["harris-michael"]. *)

  val create : unit -> t
  (** A fresh empty set: head and tail sentinels only. *)

  val insert : t -> int -> bool

  val remove : t -> int -> bool

  val contains : t -> int -> bool

  val to_list : t -> int list
  (** Present values in ascending order.  Quiescent use only: the traversal
      takes no locks and applies the algorithm's own notion of presence
      (e.g. it skips logically deleted nodes). *)

  val size : t -> int
  (** [List.length (to_list t)], computed without building the list. *)

  val check_invariants : t -> (unit, string) result
  (** Structural sanity at quiescence: sentinel values intact, strictly
      sorted reachable values, termination at the tail sentinel, and
      algorithm-specific conditions (e.g. VBL: no reachable node is marked
      deleted; lazy/Harris lists tolerate reachable marked nodes only where
      their semantics allow it).  [Error msg] pinpoints the violation. *)

  val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
  (** In-order fold over the present values, ascending.  Concurrent-safe
      in the same best-effort sense as a single collecting traversal: the
      walk takes no locks and applies the algorithm's own notion of
      presence, so under concurrent updates it sees some interleaving of
      them (each visited value was present at the moment its node was
      read).  At quiescence it is exact. *)

  val iter : (int -> unit) -> t -> unit
  (** [fold]-derived ordered iteration over the present values. *)

  val range_query : t -> int -> int -> int list
  (** [range_query t lo hi] returns the present values in the inclusive
      window [lo, hi], ascending.  [lo > hi] yields [[]].  Atomicity is
      per-implementation: genuinely linearizable only where the
      collection runs in mutual exclusion (the coarse wrappers collect
      under their global lock).  Everywhere else the operation derives
      from {!Derive} and is best-effort: one collecting traversal, whose
      result can be a window that no single instant ever contained.  Each
      implementation documents which contract it provides. *)

  val approx_size : t -> int
  (** A cheap, possibly stale cardinality estimate.  Exact at
      quiescence.  Structures with auxiliary counters (e.g. the sharded
      frontend's striped counters) answer in O(1); plain structures fall
      back to a counting traversal. *)
end

(** All algorithms are functors over the memory backend, so the same source
    runs under benchmarks ({!Real_mem}) and under deterministic schedule
    control ({!Instr_mem}). *)
module type MAKER = functor (M : Vbl_memops.Mem_intf.S) -> S

(** Derives the fold-based operations — [to_list], [size], [iter],
    [approx_size] and [range_query] — from a presence-aware ascending
    [fold].

    [range_query] is one collecting traversal filtered to the window.  It
    is best-effort, not a snapshot: each returned value was present when
    its node was read, but under concurrent updates the window as a whole
    may never have existed at any single instant.  Collecting again until
    two collections agree would not change that: with initial [{1}], a
    single updater running
    [remove 1; insert 2; remove 2; insert 1; remove 1; insert 2]
    concurrently with [range_query 1 2] can let both collections observe
    [[1; 2]] even though [{1, 2}] never exists at any instant — the
    removal and re-insertion between the two collections (ABA) restores
    agreement.  Certifying stability would need per-node modification
    stamps in the collected view (plus boundary-predecessor stamps for
    the lists and routing-node stamps for the trees); no family carries
    them, so {e every} structure deriving its range ops from this
    functor — locked, versioned and lock-free alike — provides the
    best-effort contract only, at the cost of one traversal.  Truly
    linearizable range queries live where a single collection runs in
    mutual exclusion — the coarse wrappers, which collect under their
    global lock. *)
module Derive (Base : sig
  type t

  val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
end) =
struct
  let to_list t = List.rev (Base.fold (fun acc v -> v :: acc) [] t)
  let size t = Base.fold (fun n _ -> n + 1) 0 t
  let iter f t = Base.fold (fun () v -> f v) () t
  let approx_size = size

  (* Descending collection, reversed once. *)
  let collect t lo hi =
    Base.fold (fun acc v -> if lo <= v && v <= hi then v :: acc else acc) [] t

  let range_query t lo hi = if lo > hi then [] else List.rev (collect t lo hi)
end
