(** MESI-flavoured cache-coherence cost model: a single directory over the
    coherence "lines" the instrumented backend tags accesses with (one per
    list node, one per Harris-Michael AMR pair).

    Deliberately minimal — infinite caches, flat interconnect — because
    the phenomena the paper's results hinge on are first-order coherence
    effects: warm traversals hit shared lines; every lock word and link
    write takes a line exclusive and invalidates sharers; a failed CAS
    pays like a successful one; the AMR pair costs an extra dependent
    load.  Latencies are in arbitrary cycles; only ratios matter. *)

type costs = {
  l1_hit : int;
  remote_clean : int;  (** read miss served from a clean/shared copy *)
  remote_dirty : int;  (** read miss served from another core's M copy *)
  upgrade : int;  (** write hit on a shared line (invalidate sharers) *)
  remote_write : int;  (** write miss (fetch-and-invalidate) *)
  alloc : int;
}

val intel_costs : costs
(** Profile for the paper's 4-socket Xeon Gold 6150 testbed. *)

val amd_costs : costs
(** Profile for the paper's 4-socket Opteron 6276 testbed (tech report):
    relatively costlier remote traffic and invalidations. *)

val default_costs : costs
(** [intel_costs]. *)

val profiles : (string * costs) list

val profile_exn : string -> costs
(** Lookup by name ("intel" | "amd"); [Invalid_argument] otherwise. *)

(** NUMA topology: threads fill sockets in blocks of [cores_per_socket];
    remote traffic within a socket is cheaper (x0.6) than across the
    interconnect (x1.4).  [flat] (the default) is the socket-less model
    used for the published tables. *)
type topology = { sockets : int; cores_per_socket : int }

val flat : topology

val intel_topology : topology
(** 4 x 18 cores, the paper's Xeon. *)

val amd_topology : topology
(** 4 x 16 cores, the paper's Opteron. *)

type t

val create : ?costs:costs -> ?topology:topology -> n_threads:int -> unit -> t
(** A directory for threads [0 .. n_threads - 1]. *)

val n_threads : t -> int

val read : t -> thread:int -> line:int -> int
(** Charge a read and update the directory. *)

val write : t -> thread:int -> line:int -> int
(** Charge a write/CAS/lock-word access: the line becomes exclusive. *)

val alloc : t -> thread:int -> line:int -> int
(** Allocation: the new line starts owned by its creator. *)
