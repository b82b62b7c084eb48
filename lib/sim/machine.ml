(** The simulated multicore: per-thread virtual clocks over the cooperative
    conductor, advanced by the coherence cost model.

    Scheduling rule: the runnable thread with the smallest clock moves next,
    the lowest thread id on equal clocks (a standard conservative
    discrete-event rule — an access cannot be reordered before another that
    finished earlier in virtual time).  Lock waiters' clocks are pulled up
    to the release time when they wake, which is exactly lock-handoff
    latency.

    The candidates live in a binary min-heap of thread ids keyed by
    [(clock, id)], so a step costs O(log threads).  A thread leaves the heap
    when it finishes or when it comes up parked on a held lock; a parked
    thread re-enters at the release that bumps its clock, the only event
    that can make it runnable again. *)

module Exec = Vbl_sched.Exec
module Instr = Vbl_memops.Instr_mem

type t = {
  exec : Exec.t;
  coherence : Coherence.t;
  clocks : float array;
  heap : int array;  (** [heap.(0 .. size - 1)]: thread ids, heap-ordered *)
  pos : int array;  (** thread id -> its index in [heap]; -1 when out *)
  mutable size : int;
  mutable steps : int;
}

let before t i j =
  let ci = t.clocks.(i) and cj = t.clocks.(j) in
  ci < cj || (ci = cj && i < j)

let place t k i =
  t.heap.(k) <- i;
  t.pos.(i) <- k

let rec sift_up t k =
  if k > 0 then begin
    let parent = (k - 1) / 2 in
    let i = t.heap.(k) and p = t.heap.(parent) in
    if before t i p then begin
      place t parent i;
      place t k p;
      sift_up t parent
    end
  end

let rec sift_down t k =
  let l = (2 * k) + 1 in
  if l < t.size then begin
    let r = l + 1 in
    let c = if r < t.size && before t t.heap.(r) t.heap.(l) then r else l in
    let i = t.heap.(k) and ci = t.heap.(c) in
    if before t ci i then begin
      place t k ci;
      place t c i;
      sift_down t c
    end
  end

let push t i =
  place t t.size i;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

(* Remove the minimum, which is the thread at the root. *)
let pop t =
  t.pos.(t.heap.(0)) <- -1;
  t.size <- t.size - 1;
  if t.size > 0 then begin
    place t 0 t.heap.(t.size);
    sift_down t 0
  end

let create ~coherence bodies =
  let n = List.length bodies in
  if Coherence.n_threads coherence < n then
    invalid_arg
      (Printf.sprintf "Machine.create: coherence directory for %d threads, %d bodies"
         (Coherence.n_threads coherence) n);
  let exec = Exec.create bodies in
  let t =
    {
      exec;
      coherence;
      clocks = Array.make n 0.;
      heap = Array.make n 0;
      pos = Array.make n (-1);
      size = 0;
      steps = 0;
    }
  in
  for i = 0 to n - 1 do
    match Exec.pending exec i with Exec.Done -> () | _ -> push t i
  done;
  t

let cost_of t ~thread (a : Instr.access) =
  match a.kind with
  | Instr.Read | Instr.Touch -> Coherence.read t.coherence ~thread ~line:a.line
  | Instr.Write | Instr.Cas | Instr.Lock_try | Instr.Lock_release ->
      Coherence.write t.coherence ~thread ~line:a.line
  | Instr.New_node -> Coherence.alloc t.coherence ~thread ~line:a.line

(* Lock handoff: waiters cannot have observed the release before it
   happened in virtual time.  Waiters are matched by lock identity (its
   shadow): two locks may share a coherence line, and releasing one says
   nothing to the other's waiters.  The releaser's own key is already
   settled, so each bumped waiter can be sifted (or re-inserted) on its
   own. *)
let wake_waiters t ~(lock : Instr.shadow) ~at =
  for j = 0 to Array.length t.clocks - 1 do
    match Exec.pending t.exec j with
    | Exec.Blocked l when l.Instr.l_shadow == lock ->
        t.clocks.(j) <- Float.max t.clocks.(j) at;
        if t.pos.(j) < 0 then push t j else sift_down t t.pos.(j)
    | _ -> ()
  done

(** Run until every thread is done or has a clock beyond [horizon].
    Returns the number of conductor steps executed. *)
let run t ~horizon =
  while t.size > 0 && t.clocks.(t.heap.(0)) <= horizon do
    let i = t.heap.(0) in
    match Exec.pending t.exec i with
    | Exec.Access a ->
        let c = cost_of t ~thread:i a in
        Exec.step t.exec i;
        t.clocks.(i) <- t.clocks.(i) +. float_of_int c;
        t.steps <- t.steps + 1;
        (match Exec.pending t.exec i with Exec.Done -> pop t | _ -> sift_down t 0);
        (match a.Instr.kind with
        | Instr.Lock_release -> wake_waiters t ~lock:a.Instr.shadow ~at:t.clocks.(i)
        | _ -> ())
    | Exec.Blocked l ->
        if Instr.lock_held l then pop t
        else
          (* Unparking consumes no virtual time; the retry pays. *)
          Exec.step t.exec i
    | Exec.Done -> assert false
  done;
  t.steps

let clock t i = t.clocks.(i)
