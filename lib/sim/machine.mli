(** The simulated multicore: per-thread virtual clocks over the
    cooperative conductor, advanced by the coherence cost model.

    Scheduling contract:
    - the runnable thread with the smallest clock moves next, the lowest
      thread id among equal clocks;
    - a thread parked on a held lock is not runnable, and wakes only at a
      release of {e that} lock (not of another lock on the same coherence
      line); the release pulls its clock up to the release time
      (lock-handoff latency);
    - unparking costs no virtual time and is not counted as a step; the
      retried lock attempt is.

    One step costs O(log threads) in the scheduler, plus a scan of the
    threads at each lock release to find its waiters. *)

type t

val create : coherence:Coherence.t -> (unit -> unit) list -> t
(** Start every body as a simulated thread, thread [i] running the [i]-th.
    Raises [Invalid_argument] when [coherence] is sized for fewer threads
    than there are bodies. *)

val run : t -> horizon:float -> int
(** Run until every thread is done or past [horizon] virtual cycles;
    returns the number of conductor steps executed. *)

val clock : t -> int -> float
(** Thread [i]'s virtual clock, in cycles. *)
