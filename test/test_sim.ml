(* Tests for the multicore cost simulator: coherence-model unit tests,
   machine-level clock behaviour, determinism, and the qualitative shapes
   the reproduction depends on (these are the load-bearing assertions
   behind EXPERIMENTS.md). *)

module C = Vbl_sim.Coherence
module Instr = Vbl_memops.Instr_mem

let costs = C.default_costs

let coherence_tests =
  [
    Alcotest.test_case "first read is a clean miss, second a hit" `Quick (fun () ->
        let d = C.create ~n_threads:4 () in
        Alcotest.(check int) "miss" costs.C.remote_clean (C.read d ~thread:0 ~line:1);
        Alcotest.(check int) "hit" costs.C.l1_hit (C.read d ~thread:0 ~line:1));
    Alcotest.test_case "reading another core's dirty line is expensive" `Quick
      (fun () ->
        let d = C.create ~n_threads:4 () in
        ignore (C.write d ~thread:0 ~line:1);
        Alcotest.(check int) "dirty read" costs.C.remote_dirty (C.read d ~thread:1 ~line:1);
        (* the owner was downgraded: a third reader now sees a clean copy *)
        Alcotest.(check int) "clean read" costs.C.remote_clean (C.read d ~thread:2 ~line:1));
    Alcotest.test_case "writes invalidate readers" `Quick (fun () ->
        let d = C.create ~n_threads:4 () in
        ignore (C.read d ~thread:0 ~line:1);
        ignore (C.read d ~thread:1 ~line:1);
        (* thread 2 writes: upgrade over the sharers *)
        Alcotest.(check int) "upgrade" costs.C.upgrade (C.write d ~thread:2 ~line:1);
        (* previous sharers now miss *)
        Alcotest.(check int) "invalidated" costs.C.remote_dirty (C.read d ~thread:0 ~line:1));
    Alcotest.test_case "owner re-writes are hits" `Quick (fun () ->
        let d = C.create ~n_threads:4 () in
        ignore (C.write d ~thread:0 ~line:1);
        Alcotest.(check int) "hit" costs.C.l1_hit (C.write d ~thread:0 ~line:1));
    Alcotest.test_case "sole sharer upgrades silently" `Quick (fun () ->
        let d = C.create ~n_threads:4 () in
        ignore (C.read d ~thread:0 ~line:1);
        ignore (C.read d ~thread:0 ~line:1);
        Alcotest.(check int) "silent upgrade" costs.C.l1_hit (C.write d ~thread:0 ~line:1));
    Alcotest.test_case "alloc grants ownership" `Quick (fun () ->
        let d = C.create ~n_threads:4 () in
        Alcotest.(check int) "alloc" costs.C.alloc (C.alloc d ~thread:0 ~line:9);
        Alcotest.(check int) "own write hit" costs.C.l1_hit (C.write d ~thread:0 ~line:9));
  ]

let numa_tests =
  let topology = C.intel_topology in
  [
    Alcotest.test_case "same-socket dirty reads are cheaper" `Quick (fun () ->
        let d = C.create ~topology ~n_threads:72 () in
        ignore (C.write d ~thread:0 ~line:1);
        (* thread 1 shares socket 0 with thread 0; thread 20 is on socket 1 *)
        let near = C.read d ~thread:1 ~line:1 in
        let d2 = C.create ~topology ~n_threads:72 () in
        ignore (C.write d2 ~thread:0 ~line:1);
        let far = C.read d2 ~thread:20 ~line:1 in
        Alcotest.(check bool)
          (Printf.sprintf "near %d < flat %d < far %d" near costs.C.remote_dirty far)
          true
          (near < costs.C.remote_dirty && costs.C.remote_dirty < far));
    Alcotest.test_case "cross-socket writes pay the interconnect" `Quick (fun () ->
        let d = C.create ~topology ~n_threads:72 () in
        ignore (C.write d ~thread:0 ~line:1);
        Alcotest.(check bool) "cross write dearer" true
          (C.write d ~thread:40 ~line:1 > costs.C.remote_write));
    Alcotest.test_case "flat topology unchanged" `Quick (fun () ->
        let d = C.create ~n_threads:72 () in
        ignore (C.write d ~thread:0 ~line:1);
        Alcotest.(check int) "flat dirty" costs.C.remote_dirty (C.read d ~thread:40 ~line:1));
    Alcotest.test_case "invalid topology rejected" `Quick (fun () ->
        Alcotest.check_raises "zero sockets"
          (Invalid_argument "Coherence.create: invalid topology") (fun () ->
            ignore
              (C.create ~topology:{ C.sockets = 0; cores_per_socket = 1 } ~n_threads:2 ())));
  ]

(* Reference directory, written as the plain per-thread scan: a sharer
   bitset, and a walk over every thread for the nearest provider of a
   shared copy.  {!C} answers the same questions from counts and must
   charge exactly what this charges. *)
module Scan_directory = struct
  type line = { mutable owner : int; mutable sharers : Bytes.t }

  type t = {
    costs : C.costs;
    topology : C.topology;
    n_threads : int;
    lines : (int, line) Hashtbl.t;
  }

  let create costs topology n_threads = { costs; topology; n_threads; lines = Hashtbl.create 16 }

  let socket_of t i = i / t.topology.C.cores_per_socket mod t.topology.C.sockets

  let scale t ~from_thread ~to_thread cost =
    if t.topology.C.sockets = 1 then cost
    else if socket_of t from_thread = socket_of t to_thread then max 1 (cost * 6 / 10)
    else cost * 14 / 10

  let bit_get bs i = Char.code (Bytes.get bs (i / 8)) land (1 lsl (i mod 8)) <> 0

  let bit_set bs i =
    Bytes.set bs (i / 8) (Char.chr (Char.code (Bytes.get bs (i / 8)) lor (1 lsl (i mod 8))))

  let state t line =
    match Hashtbl.find_opt t.lines line with
    | Some s -> s
    | None ->
        let s = { owner = -1; sharers = Bytes.make ((t.n_threads + 7) / 8) '\000' } in
        Hashtbl.add t.lines line s;
        s

  let has_other_sharer t st ~than =
    List.exists (fun j -> j <> than && bit_get st.sharers j) (List.init t.n_threads Fun.id)

  let nearest_sharer t st ~thread =
    let best = ref (-1) in
    for j = 0 to t.n_threads - 1 do
      if bit_get st.sharers j then
        if !best < 0 then best := j
        else if socket_of t j = socket_of t thread && socket_of t !best <> socket_of t thread
        then best := j
    done;
    !best

  let read t ~thread ~line =
    let st = state t line in
    let c = t.costs in
    let cost =
      if st.owner = thread || bit_get st.sharers thread then c.C.l1_hit
      else if st.owner >= 0 then scale t ~from_thread:st.owner ~to_thread:thread c.C.remote_dirty
      else
        let provider = nearest_sharer t st ~thread in
        if provider < 0 then c.C.remote_clean
        else scale t ~from_thread:provider ~to_thread:thread c.C.remote_clean
    in
    if st.owner >= 0 && st.owner <> thread then begin
      bit_set st.sharers st.owner;
      st.owner <- -1
    end;
    if st.owner <> thread then bit_set st.sharers thread;
    cost

  let write t ~thread ~line =
    let st = state t line in
    let c = t.costs in
    let cost =
      if st.owner = thread then c.C.l1_hit
      else if
        bit_get st.sharers thread && (not (has_other_sharer t st ~than:thread)) && st.owner < 0
      then c.C.l1_hit
      else if bit_get st.sharers thread then c.C.upgrade
      else if st.owner >= 0 then scale t ~from_thread:st.owner ~to_thread:thread c.C.remote_write
      else if has_other_sharer t st ~than:thread then c.C.upgrade
      else c.C.remote_clean
    in
    st.owner <- thread;
    st.sharers <- Bytes.make (Bytes.length st.sharers) '\000';
    cost

  let alloc t ~thread ~line =
    (state t line).owner <- thread;
    t.costs.C.alloc
end

type dir_op = Read | Write | Alloc

(* Half the accesses come from six threads on either side of socket
   boundaries, so that a thread often re-reads or re-writes a line it
   already holds; sixteen lines leave some of them untouched long enough
   for a lone reader's silent upgrade. *)
let dir_ops_gen =
  QCheck2.Gen.(
    let thread = oneof [ int_range 0 71; oneofl [ 0; 1; 18; 19; 70; 71 ] ] in
    list_size (int_range 0 400)
      (triple (oneofl [ Read; Read; Write; Alloc ]) thread (int_range 0 15)))

let pp_dir_op (op, thread, line) =
  Printf.sprintf "%s t%d l%d"
    (match op with Read -> "read" | Write -> "write" | Alloc -> "alloc")
    thread line

let matches_scan_directory (costs, topology) ops =
  let d = C.create ~costs ~topology ~n_threads:72 () in
  let r = Scan_directory.create costs topology 72 in
  List.for_all
    (fun (op, thread, line) ->
      match op with
      | Read -> C.read d ~thread ~line = Scan_directory.read r ~thread ~line
      | Write -> C.write d ~thread ~line = Scan_directory.write r ~thread ~line
      | Alloc -> C.alloc d ~thread ~line = Scan_directory.alloc r ~thread ~line)
    ops

let reference_tests =
  List.map
    (fun (label, machine) ->
      QCheck_alcotest.to_alcotest
        (QCheck2.Test.make ~count:300
           ~name:(label ^ ": costs match the per-thread-scan directory")
           ~print:(fun ops -> String.concat "; " (List.map pp_dir_op ops))
           dir_ops_gen
           (matches_scan_directory machine)))
    [
      ("flat", (C.default_costs, C.flat));
      ("intel 4x18", (C.intel_costs, C.intel_topology));
      ("amd 4x16", (C.amd_costs, C.amd_topology));
    ]

let machine_tests =
  [
    Alcotest.test_case "clocks advance by access costs" `Quick (fun () ->
        let coherence = C.create ~n_threads:1 () in
        let body () =
          let c = Instr.make (Instr.site "") "c" 0 in
          Instr.set c 1;
          ignore (Instr.get c)
        in
        let m = Vbl_sim.Machine.create ~coherence [ body ] in
        let steps = Vbl_sim.Machine.run m ~horizon:1_000. in
        Alcotest.(check int) "steps" 2 steps;
        (* write miss (clean) + read hit *)
        Alcotest.(check (float 0.001)) "clock"
          (float_of_int (costs.C.remote_clean + costs.C.l1_hit))
          (Vbl_sim.Machine.clock m 0));
    Alcotest.test_case "horizon stops the run" `Quick (fun () ->
        let coherence = C.create ~n_threads:1 () in
        let site = Instr.site "" in
        let body () =
          let c = Instr.make site "c" 0 in
          for _ = 1 to 1_000_000 do
            Instr.set c 1
          done
        in
        let m = Vbl_sim.Machine.create ~coherence [ body ] in
        let steps = Vbl_sim.Machine.run m ~horizon:50. in
        Alcotest.(check bool) "bounded" true (steps < 200));
    Alcotest.test_case "lock handoff pulls waiter clocks forward" `Quick (fun () ->
        let coherence = C.create ~n_threads:2 () in
        let site = Instr.site "" in
        let lock = Instr.make_lock site "l" in
        let body () =
          Instr.lock lock;
          Instr.unlock lock
        in
        let m = Vbl_sim.Machine.create ~coherence [ body; body ] in
        ignore (Vbl_sim.Machine.run m ~horizon:10_000.);
        (* The second thread could not finish before the first released. *)
        let c0 = Vbl_sim.Machine.clock m 0 and c1 = Vbl_sim.Machine.clock m 1 in
        Alcotest.(check bool) "serialized" true (Float.max c0 c1 > Float.min c0 c1));
    Alcotest.test_case "a directory too small for the bodies is rejected" `Quick (fun () ->
        let started = ref 0 in
        let body () = incr started in
        Alcotest.check_raises "9 bodies, 1-thread directory"
          (Invalid_argument "Machine.create: coherence directory for 1 threads, 9 bodies")
          (fun () ->
            ignore
              (Vbl_sim.Machine.create ~coherence:(C.create ~n_threads:1 ())
                 (List.init 9 (fun _ -> body))));
        Alcotest.(check int) "no body started" 0 !started;
        let m = Vbl_sim.Machine.create ~coherence:(C.create ~n_threads:3 ()) [ body; body ] in
        Alcotest.(check int) "a larger directory is fine" 0 (Vbl_sim.Machine.run m ~horizon:1.));
    Alcotest.test_case "releasing a lock leaves another lock's waiters alone" `Quick
      (fun () ->
        (* vbl-bst's slock and tlock: two locks on one node's line. *)
        let coherence = C.create ~n_threads:2 () in
        let node = Instr.site "" in
        let slock = Instr.make_lock node "slock" and tlock = Instr.make_lock node "tlock" in
        let c = Instr.make (Instr.site "") "c" 0 in
        let holder () =
          Instr.lock tlock;
          Instr.lock slock;
          Instr.unlock slock;
          for _ = 1 to 1_000 do
            Instr.set c 1
          done;
          Instr.unlock tlock
        in
        let waiter () =
          Instr.lock tlock;
          Instr.unlock tlock
        in
        let m = Vbl_sim.Machine.create ~coherence [ holder; waiter ] in
        (* The horizon falls after the slock release, before the tlock one. *)
        ignore (Vbl_sim.Machine.run m ~horizon:200.);
        (* The waiter's only step was its failed try on the holder's
           exclusive line; the slock release must not pull it forward. *)
        Alcotest.(check (float 0.)) "waiter clock" (float_of_int costs.C.remote_write)
          (Vbl_sim.Machine.clock m 1));
  ]

let sim_params threads update range =
  {
    Vbl_sim.Sim_run.threads;
    update_percent = update;
    key_range = range;
    horizon = 30_000.;
    seed = 11L;
    zipf = None;
  }

let run name threads update range =
  Vbl_sim.Sim_run.run (Vbl_sched.Drive.find_instrumented name) (sim_params threads update range)

let sim_run_tests =
  [
    Alcotest.test_case "deterministic for a fixed seed" `Quick (fun () ->
        let a = run "vbl" 4 20 64 and b = run "vbl" 4 20 64 in
        Alcotest.(check int) "ops" a.Vbl_sim.Sim_run.ops_completed b.Vbl_sim.Sim_run.ops_completed;
        Alcotest.(check int) "steps" a.Vbl_sim.Sim_run.steps b.Vbl_sim.Sim_run.steps);
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = run "vbl" 4 20 64 in
        let b =
          Vbl_sim.Sim_run.run
            (Vbl_sched.Drive.find_instrumented "vbl")
            { (sim_params 4 20 64) with Vbl_sim.Sim_run.seed = 12L }
        in
        Alcotest.(check bool) "ops differ" true
          (a.Vbl_sim.Sim_run.ops_completed <> b.Vbl_sim.Sim_run.ops_completed));
    Alcotest.test_case "steady-state size stays near range/2" `Quick (fun () ->
        let r = run "vbl" 8 100 64 in
        Alcotest.(check bool) "size sane" true
          (r.Vbl_sim.Sim_run.final_size > 8 && r.Vbl_sim.Sim_run.final_size < 56));
    Alcotest.test_case "parameter validation" `Quick (fun () ->
        Alcotest.check_raises "threads"
          (Invalid_argument "Sim_run.run: threads must be >= 1") (fun () ->
            ignore (run "vbl" 0 20 64));
        Alcotest.check_raises "update"
          (Invalid_argument "Sim_run.run: update_percent must be in [0, 100]") (fun () ->
            ignore (run "vbl" 1 101 64)));
    (* The qualitative claims of the paper, as assertions. *)
    Alcotest.test_case "shape: vbl scales on the Figure 1 workload" `Slow (fun () ->
        let t1 = (run "vbl" 1 20 50).Vbl_sim.Sim_run.throughput in
        let t48 = (run "vbl" 48 20 50).Vbl_sim.Sim_run.throughput in
        Alcotest.(check bool) "scales" true (t48 > 3. *. t1));
    Alcotest.test_case "shape: lazy collapses under contention (Fig 1)" `Slow (fun () ->
        let vbl = (run "vbl" 64 20 50).Vbl_sim.Sim_run.throughput in
        let lz = (run "lazy" 64 20 50).Vbl_sim.Sim_run.throughput in
        Alcotest.(check bool) "vbl well ahead" true (vbl > 1.5 *. lz));
    Alcotest.test_case "shape: vbl beats HM-AMR on read-only (1.6x claim)" `Slow
      (fun () ->
        let vbl = (run "vbl" 48 0 200).Vbl_sim.Sim_run.throughput in
        let hm = (run "harris-michael" 48 0 200).Vbl_sim.Sim_run.throughput in
        let ratio = vbl /. hm in
        Alcotest.(check bool)
          (Printf.sprintf "ratio %.2f in [1.2, 2.2]" ratio)
          true
          (ratio > 1.2 && ratio < 2.2));
    Alcotest.test_case "shape: equal at one thread (no-interference case)" `Slow
      (fun () ->
        let vbl = (run "vbl" 1 20 200).Vbl_sim.Sim_run.throughput in
        let lz = (run "lazy" 1 20 200).Vbl_sim.Sim_run.throughput in
        let ratio = vbl /. lz in
        Alcotest.(check bool)
          (Printf.sprintf "ratio %.2f near 1" ratio)
          true
          (ratio > 0.9 && ratio < 1.1));
    Alcotest.test_case "shape: pre-lock validation beats post-lock (ablation)" `Slow
      (fun () ->
        let vbl = (run "vbl" 64 20 50).Vbl_sim.Sim_run.throughput in
        let post = (run "vbl-postlock" 64 20 50).Vbl_sim.Sim_run.throughput in
        Alcotest.(check bool) "vbl ahead" true (vbl > post));
  ]

(* Modelled results pinned row by row: any change to the scheduler or the
   cost model that is meant to keep the simulation bit-identical must
   leave every row as it is.  vbl-bst keeps two locks on one node's line,
   so its rows also pin that a release wakes only its own lock's
   waiters. *)
let golden_rows =
  [
    "vbl 8 flat: ops=252 steps=8356 size=26";
    "vbl 8 amd4: ops=198 steps=6697 size=27";
    "vbl 72 flat: ops=836 steps=28168 size=25";
    "vbl 72 amd4: ops=613 steps=21365 size=24";
    "lazy 8 flat: ops=143 steps=4927 size=29";
    "lazy 8 amd4: ops=120 steps=4242 size=26";
    "lazy 72 flat: ops=241 steps=10456 size=22";
    "lazy 72 amd4: ops=198 steps=8998 size=24";
    "harris-michael 8 flat: ops=191 steps=9206 size=27";
    "harris-michael 8 amd4: ops=166 steps=7986 size=31";
    "harris-michael 72 flat: ops=617 steps=32767 size=21";
    "harris-michael 72 amd4: ops=474 steps=24209 size=20";
    "vbl-bst 8 flat: ops=420 steps=4308 size=30";
    "vbl-bst 8 amd4: ops=324 steps=3360 size=25";
    "vbl-bst 72 flat: ops=1516 steps=16120 size=23";
    "vbl-bst 72 amd4: ops=952 steps=9935 size=28";
  ]

let golden_tests =
  [
    Alcotest.test_case "pinned ops/steps/size on flat and 4-socket AMD" `Quick (fun () ->
        let row name threads (label, costs, topology) =
          let r =
            Vbl_sim.Sim_run.run ~costs ~topology
              (Vbl_harness.Sweep.find_instrumented name)
              { (sim_params threads 50 50) with Vbl_sim.Sim_run.horizon = 4_000. }
          in
          Printf.sprintf "%s %d %s: ops=%d steps=%d size=%d" name threads label
            r.Vbl_sim.Sim_run.ops_completed r.Vbl_sim.Sim_run.steps r.Vbl_sim.Sim_run.final_size
        in
        let machines =
          [ ("flat", C.default_costs, C.flat); ("amd4", C.amd_costs, C.intel_topology) ]
        in
        let actual =
          List.concat_map
            (fun name ->
              List.concat_map
                (fun threads -> List.map (row name threads) machines)
                [ 8; 72 ])
            [ "vbl"; "lazy"; "harris-michael"; "vbl-bst" ]
        in
        Alcotest.(check (list string)) "rows" golden_rows actual);
  ]

let () =
  Alcotest.run "sim"
    [
      ("coherence", coherence_tests);
      ("numa", numa_tests);
      ("reference", reference_tests);
      ("machine", machine_tests);
      ("sim-run", sim_run_tests);
      ("golden", golden_tests);
    ]
