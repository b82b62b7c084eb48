(** One episode of a sim workload: a fresh instrumented set, prepopulated,
    driven by [threads] simulated threads on {!Vbl_sim.Machine} for
    [horizon] simulated cycles, all on the calling host thread.

    Each simulated thread is a closed loop that issues operations while
    its own virtual clock is within the horizon and always finishes the
    one in flight, so the set is quiescent when the machine stops and the
    end checks apply.  The wall-clock reads (one per {!window} completions,
    plus the traced operations') are host-side: they perform no effect,
    so the simulation cannot see them, and an episode's modelled figures
    are a pure function of its inputs. *)

module I = Vbl_memops.Instr_mem
module Machine = Vbl_sim.Machine

type t = {
  setup_ns : int;  (** create, prepopulate, build the machine *)
  wall_ns : int;  (** [Machine.run] *)
  steps : int;  (** conductor steps *)
  ops : int;  (** operations completed *)
  updates : int;
  updates_ok : int;
  ok : (unit, string) result;  (** end checks *)
}

let now = Vbl_obs.Contention.now_ns

(** Completions per latency window: [lat] receives the wall time of every
    [window] consecutive completed operations, across all threads. *)
let window = 64

(** Simulated thread [i] replays [calls.(i)] cyclically (see {!calls}).
    With [spans], 1 in {!Real.point_sample} of each thread's operations records
    its [gen] and [set.*] spans, which cover the operation's whole time
    in flight (the other threads' steps interleave with its own). *)
let episode (module S : Vbl_lists.Set_intf.S) ~calls ~prepop ~horizon ~lat ~spans =
  let threads = Array.length calls in
  Gc.minor ();
  let t0 = now () in
  let set =
    I.run_sequential (fun () ->
        let set = S.create () in
        Array.iter (fun k -> ignore (S.insert set k)) prepop;
        set)
  in
  let ops = Array.make threads 0 and ins = Array.make threads 0 and rem = Array.make threads 0 in
  let upd = Array.make threads 0 in
  let completed = ref 0 and mark = ref 0 in
  let machine = ref None in
  let body i =
    let calls = calls.(i) in
    let mask = Array.length calls - 1 in
    (* [Exec.create] starts each body up to its first effect, before the
       machine exists: its clock is 0 then. *)
    let clock () = match !machine with None -> 0. | Some m -> Machine.clock m i in
    fun () ->
      let apply op =
        let k = Gen.key op and kind = Gen.kind op in
        if kind = Gen.insert then (if S.insert set k then ins.(i) <- ins.(i) + 1)
        else if kind = Gen.remove then (if S.remove set k then rem.(i) <- rem.(i) + 1)
        else ignore (S.contains set k);
        if kind <> Gen.contains then upd.(i) <- upd.(i) + 1;
        incr completed;
        if !completed land (window - 1) = 0 then begin
          let t = now () in
          Stats.push lat (t - !mark);
          mark := t
        end
      in
      let n = ref 0 in
      while clock () <= horizon do
        (match spans with
        | Some sp when !n land (Real.point_sample - 1) = 0 ->
            let a = now () in
            let op = calls.(!n land mask) in
            let b = now () in
            apply op;
            let c = now () in
            let op_id = Spans.op_id sp ((i lsl 24) lor !n) in
            let root = Spans.add sp ~op:op_id Spans.Op ~start:a ~stop:c in
            ignore (Spans.add sp ~parent:root ~op:op_id Spans.Gen ~start:a ~stop:b);
            ignore (Spans.add sp ~parent:root ~op:op_id (Spans.set_call (Gen.kind op)) ~start:b ~stop:c)
        | _ -> apply calls.(!n land mask));
        incr n
      done;
      ops.(i) <- !n
  in
  let coherence = Vbl_sim.Coherence.create ~n_threads:threads () in
  machine := Some (Machine.create ~coherence (List.init threads body));
  let t1 = now () in
  mark := t1;
  let steps = Machine.run (Option.get !machine) ~horizon:Float.infinity in
  let t2 = now () in
  let sum = Array.fold_left ( + ) 0 in
  let ok =
    I.run_sequential (fun () ->
        match S.check_invariants set with
        | Error _ as e -> e
        | Ok () ->
            let expected = Array.length prepop + sum ins - sum rem in
            if S.size set = expected then Ok ()
            else Error (Printf.sprintf "size %d, expected %d" (S.size set) expected))
  in
  {
    setup_ns = t1 - t0;
    wall_ns = t2 - t1;
    steps;
    ops = sum ops;
    updates = sum upd;
    updates_ok = sum ins + sum rem;
    ok;
  }

(** Per-thread call buffers, generated once per run so that an episode's
    set-up and wall time exclude the generator: thread [i] gets the first
    4096 draws of stream [i], more than a thread completes in an episode. *)
let calls src ~threads mix = Array.init threads (fun i -> Gen.prefix src ~client:i mix 4096)

let ops_per_kcycle e ~horizon = float_of_int e.ops /. horizon *. 1000.
