(** MESI-flavoured cache-coherence cost model.

    The simulator charges every shared access a latency derived from a
    single-directory protocol over the "lines" the instrumented backend
    tags accesses with (one line per list node, one per Harris-Michael AMR
    pair).  The model is deliberately minimal — infinite caches, a flat
    interconnect — because the phenomena the paper attributes its results
    to are all first-order coherence effects:

    - wait-free traversals of a warm list hit shared lines (cheap);
    - every lock acquisition/release and every link write takes the line
      exclusive, invalidating all sharers (expensive, and it makes the
      {e next} traversal through that node expensive for everyone else);
    - a failed CAS pays for exclusivity like a successful one;
    - Harris-Michael AMR pays an extra dependent load per hop ([Touch] on
      the pair's line).

    Default latencies are in arbitrary "cycles", picked inside the ranges
    measured for Intel Xeon NUMA parts (L1 ~1, remote clean ~15-25, remote
    dirty / invalidation ~40-80): only ratios matter for the shapes. *)

type costs = {
  l1_hit : int;  (** line already valid in this thread's cache *)
  remote_clean : int;  (** read miss served from a clean/shared copy *)
  remote_dirty : int;  (** read miss served from another core's M copy *)
  upgrade : int;  (** write hit on a shared line: invalidate other sharers *)
  remote_write : int;  (** write miss: fetch-and-invalidate *)
  alloc : int;  (** node allocation *)
}

(** The paper's Intel testbed: 4-socket Xeon Gold 6150.  Ring/mesh
    interconnect, moderate cross-socket penalties. *)
let intel_costs =
  { l1_hit = 1; remote_clean = 16; remote_dirty = 40; upgrade = 24; remote_write = 44; alloc = 2 }

(** The paper's AMD testbed: 4-socket Opteron 6276 (Bulldozer).
    HyperTransport hops make remote traffic relatively more expensive and
    write-invalidations costlier — the tech report's AMD curves show the
    same ordering as Intel with earlier saturation, which these ratios
    reproduce. *)
let amd_costs =
  { l1_hit = 1; remote_clean = 28; remote_dirty = 70; upgrade = 42; remote_write = 76; alloc = 2 }

let default_costs = intel_costs

let profiles = [ ("intel", intel_costs); ("amd", amd_costs) ]

let profile_exn name =
  match List.assoc_opt name profiles with
  | Some c -> c
  | None ->
      invalid_arg
        (Printf.sprintf "Coherence.profile_exn: unknown machine %S (known: %s)" name
           (String.concat ", " (List.map fst profiles)))

(* NUMA topology: threads fill sockets in blocks of [cores_per_socket]
   (how synchrobench pins them).  [sockets = 1] is the flat model. *)
type topology = { sockets : int; cores_per_socket : int }

let flat = { sockets = 1; cores_per_socket = max_int }

(* The paper's testbeds: 4 x 18-core Xeon, 4 x 16-core Opteron. *)
let intel_topology = { sockets = 4; cores_per_socket = 18 }

let amd_topology = { sockets = 4; cores_per_socket = 16 }

(* Directory entry for one line.  [owner] holds the single M-state copy
   (-1 = none); [sharers] the S-state copies, one byte per thread, counted
   in total and per socket so that every query a charge makes is O(1). *)
type line_state = {
  mutable owner : int;
  sharers : Bytes.t;
  mutable n_sharers : int;
  socket_sharers : int array;
}

type t = {
  costs : costs;
  topology : topology;
  socket : int array;  (** thread id -> socket *)
  lines : (int, line_state) Hashtbl.t;
}

let create ?(costs = default_costs) ?(topology = flat) ~n_threads () =
  if topology.sockets < 1 || topology.cores_per_socket < 1 then
    invalid_arg "Coherence.create: invalid topology";
  {
    costs;
    topology;
    socket = Array.init n_threads (fun i -> i / topology.cores_per_socket mod topology.sockets);
    lines = Hashtbl.create 4096;
  }

let n_threads t = Array.length t.socket

(* Remote traffic staying on one socket is cheaper than a hop across the
   interconnect; the flat model is the 1.0 midpoint. *)
let scale t ~near cost =
  if t.topology.sockets = 1 then cost else if near then max 1 (cost * 6 / 10) else cost * 14 / 10

let same_socket t a b = t.socket.(a) = t.socket.(b)

let state t line =
  match Hashtbl.find_opt t.lines line with
  | Some s -> s
  | None ->
      let s =
        {
          owner = -1;
          sharers = Bytes.make (n_threads t) '\000';
          n_sharers = 0;
          socket_sharers = Array.make t.topology.sockets 0;
        }
      in
      Hashtbl.add t.lines line s;
      s

let is_sharer st thread = Bytes.get st.sharers thread <> '\000'

let add_sharer t st thread =
  if not (is_sharer st thread) then begin
    Bytes.set st.sharers thread '\001';
    st.n_sharers <- st.n_sharers + 1;
    let s = t.socket.(thread) in
    st.socket_sharers.(s) <- st.socket_sharers.(s) + 1
  end

let has_other_sharer st ~than = st.n_sharers > if is_sharer st than then 1 else 0

(** Charge a read by [thread] on [line]; updates the directory.  A miss on
    a shared line is served by a same-socket sharer when there is one. *)
let read t ~thread ~line =
  let st = state t line in
  let cost =
    if st.owner = thread || is_sharer st thread then t.costs.l1_hit
    else if st.owner >= 0 then scale t ~near:(same_socket t st.owner thread) t.costs.remote_dirty
    else if st.n_sharers = 0 then t.costs.remote_clean
    else scale t ~near:(st.socket_sharers.(t.socket.(thread)) > 0) t.costs.remote_clean
  in
  (* The owner's M copy degrades to shared; the reader becomes a sharer. *)
  if st.owner >= 0 && st.owner <> thread then begin
    add_sharer t st st.owner;
    st.owner <- -1
  end;
  if st.owner <> thread then add_sharer t st thread;
  cost

(** Charge a write/CAS/lock-word access by [thread] on [line]: the line
    must become exclusively owned. *)
let write t ~thread ~line =
  let st = state t line in
  let cost =
    if st.owner = thread then t.costs.l1_hit
    else if is_sharer st thread && not (has_other_sharer st ~than:thread) && st.owner < 0
    then t.costs.l1_hit (* sole sharer: silent upgrade *)
    else if is_sharer st thread then t.costs.upgrade
    else if st.owner >= 0 then
      scale t ~near:(same_socket t st.owner thread) t.costs.remote_write
    else if has_other_sharer st ~than:thread then t.costs.upgrade
    else t.costs.remote_clean
  in
  st.owner <- thread;
  if st.n_sharers > 0 then begin
    Bytes.fill st.sharers 0 (Bytes.length st.sharers) '\000';
    Array.fill st.socket_sharers 0 (Array.length st.socket_sharers) 0;
    st.n_sharers <- 0
  end;
  cost

(** Allocation: the new node's line starts owned by its creator. *)
let alloc t ~thread ~line =
  let st = state t line in
  st.owner <- thread;
  t.costs.alloc
