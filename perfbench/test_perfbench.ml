(* The traced run's exact counts must repeat for one seed and move with
   another: the modelled sim throughput, sim steps per op and every
   instrumented access count.  And they may depend on nothing but the
   generated inputs: perturbing every other source of variation between
   two runs (the global Random state, the work done in between) must not
   change them. *)

open Perfbench

let instr (w : Workload.t) seed =
  let src = Gen.source seed in
  let prepop = Gen.prepopulation src ~key_range:w.key_range in
  match w.kind with
  | Workload.Real r -> Instr_count.replay r.instr ~prepop ~mixes:r.clients ~n:200 src
  | Workload.Sim s -> Instr_count.replay s.sim_impl ~prepop ~mixes:[| s.mix |] ~n:200 src

let sim seed =
  match Workload.sim_fig1.kind with
  | Workload.Real _ -> assert false
  | Workload.Sim s ->
      let src = Gen.source seed in
      let prepop = Gen.prepopulation src ~key_range:Workload.sim_fig1.key_range in
      let e =
        Sim.episode s.sim_impl ~calls:(Sim.calls src ~threads:s.threads s.mix) ~prepop ~horizon:20_000.
          ~lat:(Stats.buf ()) ~spans:None
      in
      (match e.ok with Ok () -> () | Error msg -> failwith ("sim end check: " ^ msg));
      (Sim.ops_per_kcycle e ~horizon:20_000., Stats.ratio (float_of_int e.steps) (float_of_int e.ops))

let failures = ref 0

let expect what cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL: %s\n" what
  end
  else Printf.printf "ok: %s\n" what

let () =
  List.iter
    (fun (w : Workload.t) ->
      let a = instr w 1 in
      Random.init 4242;
      ignore (instr Workload.churn 9);
      let b = instr w 1 and c = instr w 2 in
      expect (w.name ^ ": instr counts repeat for one seed") (a = b);
      expect (w.name ^ ": instr counts differ for another seed") (a <> c);
      expect (w.name ^ ": replay performs accesses") (a.reads > 0 && a.ops = 200 * (if w == Workload.sim_fig1 then 1 else 2)))
    Workload.all;
  let a = sim 1 in
  Random.init 99;
  ignore (instr Workload.read_mostly 3);
  let b = sim 1 and c = sim 2 in
  expect "sim-fig1: ops/kcycle and steps/op repeat for one seed" (a = b);
  expect "sim-fig1: ops/kcycle and steps/op differ for another seed" (a <> c);
  if !failures > 0 then exit 1
