(** Per-layer measurements the traced run takes once its clients have
    stopped: each times or counts one layer alone on the workload's own
    inputs. *)

module I = Vbl_memops.Instr_mem

let now = Vbl_obs.Contention.now_ns

(** How to call into a set: directly on a real backend, inside
    [run_sequential] on an instrumented one. *)
type exec = { run : 'a. (unit -> 'a) -> 'a }

let direct = { run = (fun f -> f ()) }
let sequential = { run = I.run_sequential }

(** The generator ({!Vbl_util.Rng} under {!Gen.next}) alone, ns per draw. *)
let gen_alone src mix =
  let rng = Gen.stream src ~client:0 and n = 200_000 in
  Stats.time_median ~reps:5 (fun () ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Gen.next rng mix))
      done)
  /. float_of_int n

(** [shard_of] of the 8-shard router over the op stream's keys, ns/call. *)
let route_ns keys =
  let shard_of = Vbl_shard.Registry.Vbl_sharded_8_reclaim.shard_of in
  Stats.time_median ~reps:5 (fun () ->
      for i = 0 to Array.length keys - 1 do
        ignore (Sys.opaque_identity (shard_of keys.(i)))
      done)
  /. float_of_int (Array.length keys)

(** One full [fold], timed alone; median of 9, each a [range.fold] span. *)
let fold_ns (type t) (module S : Vbl_lists.Set_intf.S with type t = t) (set : t) exec sp =
  Stats.median
    (List.init 9 (fun i ->
         let a = now () in
         ignore (Sys.opaque_identity (exec.run (fun () -> S.fold (fun n _ -> n + 1) 0 set)));
         let b = now () in
         ignore (Spans.add sp ~op:(Spans.op_id sp i) Spans.Range_fold ~start:a ~stop:b);
         float_of_int (b - a)))

(** A single-client replay with the kinds in rotation (insert, remove,
    contains) over [keys], each call a span; results are checked against
    a model of the set.  Returns the mismatches. *)
let replay (type t) (module S : Vbl_lists.Set_intf.S with type t = t) (set : t) exec sp ~keys =
  let model = Hashtbl.create 4096 in
  List.iter (fun k -> Hashtbl.replace model k ()) (exec.run (fun () -> S.to_list set));
  let bad = ref 0 in
  Array.iteri
    (fun i k ->
      let kind = i mod 3 in
      let a = now () in
      let r =
        exec.run (fun () ->
            if kind = Gen.insert then S.insert set k
            else if kind = Gen.remove then S.remove set k
            else S.contains set k)
      in
      let b = now () in
      ignore (Spans.add sp ~op:(Spans.op_id sp (1_000_000 + i)) (Spans.set_call kind) ~start:a ~stop:b);
      let present = Hashtbl.mem model k in
      if kind = Gen.insert then Hashtbl.replace model k ()
      else if kind = Gen.remove then Hashtbl.remove model k;
      if r <> (if kind = Gen.insert then not present else present) then incr bad)
    keys;
  !bad

(** ns/op of the functorised [vbl] on {!Vbl_memops.Real_mem} over ns/op
    of the hand-specialised [vbl-direct], on the same single-client
    replay; interleaved, 5 rounds, ratio of medians. *)
let functor_overhead ~prepop ~ops =
  let time (module S : Vbl_lists.Set_intf.S) =
    let set = S.create () in
    Array.iter (fun k -> ignore (S.insert set k)) prepop;
    let a = now () in
    Array.iter (Instr_count.apply (module S) set ~width:0) ops;
    float_of_int (now () - a)
  in
  let rounds =
    List.init 5 (fun _ -> (time (module Vbl_lists.Registry.Vbl), time (module Vbl_direct)))
  in
  Stats.median (List.map fst rounds) /. Stats.median (List.map snd rounds)
