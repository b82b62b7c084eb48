(** One benchmark run: [run workload ~seed ~seconds ~trace].

    A clean run ([trace = false]) installs no probe, reads the clock only
    for the sampled calls, and reports the end-to-end metrics.  A traced
    run alternates clean and traced segments (or sim episodes) of equal
    length, installs {!Vbl_obs.Probe.metrics} and records spans in the
    traced ones, then measures each layer alone, and reports the
    per-layer metrics; [obs.probe_overhead] is its traced-versus-clean
    throughput gap. *)

module M = Vbl_obs.Metrics
module Probe = Vbl_obs.Probe

type metric = { name : string; value : float; unit : string }
type outcome = { attempted : int; failed : int; metrics : metric list; notes : string list }

let m name unit value = { name; value; unit }
let s_ns = 1_000_000_000
let setup_reps = 21

(* The first second after prepopulation runs measurably slower (up to 40%
   on read-mostly), so every run warms up for one second first. *)
let warmup_ns = s_ns
let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let per a b = Stats.ratio (float_of_int a) (float_of_int b)

(* The major heap after a full collection at the end of the run: what the
   set and the runtime retain.  The peak ([top_heap_words]) depends on when
   the major GC happened to run and varied by 20% between runs.  Not an
   end-to-end metric: on churn the reclaim pools keep a timing-dependent
   number of nodes (3-6 MB for 32 live keys), 26% apart between runs. *)
let heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.quick_stat ()).heap_words * (Sys.word_size / 8)) /. 1048576.

(* The latency samples a workload reports: its range queries' where it
   has them, else its point calls'. *)
let latency_samples (clients : Real.client list) =
  let ranged = List.filter (fun c -> not (Real.is_point c)) clients in
  Stats.sorted (List.map (fun (c : Real.client) -> c.lat) (if ranged = [] then clients else ranged))

let setup_real (type t) (module S : Workload.SET with type t = t) prepop =
  let times = ref [] and set = ref None in
  for _ = 1 to setup_reps do
    (* Each repetition starts from an empty minor heap. *)
    Gc.minor ();
    let a = Real.now () in
    set := Some (Real.prepopulate (module S) prepop);
    times := float_of_int (Real.now () - a) /. 1e9 :: !times
  done;
  (Stats.median !times, Option.get !set)

let end_to_end ~ops_s ~p50 ~p99 ~setup_s =
  [ m "ops_s" "1/s" ops_s; m "op_p50_ns" "ns" p50; m "op_p99_ns" "ns" p99; m "setup_s" "s" setup_s ]

(* ---- per-layer metrics common to both engines ---- *)

let counters_per_op snap ~ops ~ins_ok =
  let g = M.get snap in
  let acq = g M.Lock_acquisitions and f1 = g M.Lock_next_at_failures in
  let f2 = g M.Lock_next_at_value_failures in
  let kop c = 1000. *. per (g c) ops in
  [
    m "lists.traversal_steps_per_op" "count" (per (g M.Traversal_steps) ops);
    m "lists.restarts_per_op" "count" (per (g M.Restarts) ops);
    m "sync.lock_acquisitions_per_op" "count" (per acq ops);
    m "sync.lock_next_at_failures_per_kop" "1/kop" (kop M.Lock_next_at_failures);
    m "sync.lock_next_at_value_failures_per_kop" "1/kop" (kop M.Lock_next_at_value_failures);
    m "sync.lock_contended_per_kop" "1/kop" (kop M.Lock_contended);
    m "sync.acquire_success_ratio" "ratio" (per acq (acq + f1 + f2));
    m "reclaim.retired_per_op" "count" (per (g M.Reclaim_retired) ops);
    m "reclaim.recycle_ratio" "ratio" (per (g M.Reclaim_recycled) ins_ok);
    m "reclaim.epoch_advances_per_kop" "1/kop" (kop M.Reclaim_epoch_advances);
  ]

let instr_metrics (c : Instr_count.counts) =
  [
    m "instr.reads_per_op" "count" (per c.reads c.ops);
    m "instr.writes_per_op" "count" (per c.writes c.ops);
    m "instr.cas_per_op" "count" (per c.cas c.ops);
    m "instr.lock_tries_per_op" "count" (per c.lock_tries c.ops);
    m "instr.new_nodes_per_op" "count" (per c.new_nodes c.ops);
  ]

let replay_keys = 3000
let instr_ops = 1000
let functor_ops = 20_000

(* Layers measured alone once the clients have stopped: the generator,
   the router, one fold, a single-client replay, the functor ablation and
   the instrumented access counts.  Returns (metrics, replay mismatches). *)
let alone (type t) (module S : Vbl_lists.Set_intf.S with type t = t) (set : t) exec sp src
    ~first_mix ~point_mix ~prepop ~mixes ~instr =
  let gen_ns = Layers.gen_alone src first_mix in
  let keys = Array.map Gen.key (Gen.prefix src ~client:0 first_mix 200_000) in
  let fold = Layers.fold_ns (module S) set exec sp in
  let bad = Layers.replay (module S) set exec sp ~keys:(Array.sub keys 0 replay_keys) in
  let fo = Layers.functor_overhead ~prepop ~ops:(Gen.prefix src ~client:0 point_mix functor_ops) in
  let ic = Instr_count.replay instr ~prepop ~mixes ~n:instr_ops src in
  let spans = Spans.all [ sp ] in
  let p50 name = Stats.percentile (Spans.durations name spans) 0.5 in
  ( [
      m "util.gen_ns_per_op" "ns" gen_ns;
      m "lists.insert_p50_ns" "ns" (p50 Spans.Set_insert);
      m "lists.remove_p50_ns" "ns" (p50 Spans.Set_remove);
      m "lists.contains_p50_ns" "ns" (p50 Spans.Set_contains);
      m "memops.functor_overhead" "ratio" fo;
      m "shard.route_ns" "ns" (Layers.route_ns keys);
      m "range.fold_ns" "ns" fold;
    ]
    @ instr_metrics ic,
    bad )

let zeros names = List.map (fun (n, u) -> m n u 0.) names

(* ---- real workloads ---- *)

let real_clean (w : Workload.t) (r : Workload.real) src ~seconds =
  let (module S : Workload.SET) = r.impl in
  let prepop = Gen.prepopulation src ~key_range:w.key_range in
  let setup_s, set = setup_real (module S) prepop in
  let calls = Array.mapi (fun c mix -> Gen.buffer src ~client:c mix) r.clients in
  let trial_ns = s_ns / 2 and n_trials = max 1 (int_of_float (Float.round (2. *. seconds))) in
  let clients =
    Real.segment (module S) set ~mixes:r.clients ~calls ~cursors:(Array.map (fun _ -> 0) calls) ~warmup_ns
      ~trial_ns ~n_trials
      ~traced:false ~route:false
  in
  let ins = sum (fun (c : Real.client) -> c.ins_ok) clients in
  let rem = sum (fun (c : Real.client) -> c.rem_ok) clients in
  let attempted = sum (fun (c : Real.client) -> c.calls) clients in
  let ok = Real.check (module S) set ~expected:(Array.length prepop + ins - rem) in
  let failed = match ok with Ok () -> sum (fun (c : Real.client) -> c.range_bad) clients | Error _ -> attempted in
  let lat = latency_samples clients in
  {
    attempted;
    failed;
    metrics =
      end_to_end
        ~ops_s:(Stats.median (Real.trial_rates clients ~trial_ns ~n_trials))
        ~p50:(Stats.percentile lat 0.5) ~p99:(Stats.percentile lat 0.99) ~setup_s;
    notes =
      [ Printf.sprintf "latency samples: %d" (Array.length lat); (match ok with Ok () -> "end check: ok" | Error e -> "end check FAILED: " ^ e) ];
  }

let real_traced (w : Workload.t) (r : Workload.real) src ~seconds ~spans_out =
  let (module S : Workload.SET) = r.impl in
  let prepop = Gen.prepopulation src ~key_range:w.key_range in
  let _, set = setup_real (module S) prepop in
  let calls = Array.mapi (fun c mix -> Gen.buffer src ~client:c mix) r.clients in
  let cursors = Array.map (fun _ -> 0) calls in
  M.reset ();
  let g0 = Gc.quick_stat () in
  (* Alternate 1 s clean and traced segments, clean first. *)
  let segments =
    List.init (max 2 (int_of_float seconds)) (fun i ->
        let traced = i mod 2 = 1 in
        if traced then Probe.install (Probe.metrics ());
        let clients =
          Real.segment (module S) set ~mixes:r.clients ~calls ~cursors
            ~warmup_ns:(if i = 0 then warmup_ns else s_ns / 10)
            ~trial_ns:s_ns ~n_trials:1 ~traced ~route:(traced && r.routed)
        in
        if traced then Probe.uninstall ();
        (traced, clients))
  in
  let g1 = Gc.quick_stat () in
  let snap = M.snapshot () in
  let all = List.concat_map snd segments in
  let traced = List.concat_map (fun (t, c) -> if t then c else []) segments in
  let rate tr =
    Stats.median
      (List.filter_map
         (fun (t, c) -> if t = tr then Some (List.hd (Real.trial_rates c ~trial_ns:s_ns ~n_trials:1)) else None)
         segments)
  in
  let ins = sum (fun (c : Real.client) -> c.ins_ok) all and rem = sum (fun (c : Real.client) -> c.rem_ok) all in
  let attempted = sum (fun (c : Real.client) -> c.calls) all in
  let ok = Real.check (module S) set ~expected:(Array.length prepop + ins - rem) in
  let client_spans = List.filter_map (fun (c : Real.client) -> c.spans) traced in
  let sp = Spans.create () in
  let first_mix = r.clients.(0) in
  let point_mix =
    Option.value ~default:first_mix (Array.find_opt (function Gen.Point _ -> true | Gen.Range _ -> false) r.clients)
  in
  let alone_metrics, bad =
    alone (module S) set Layers.direct sp src ~first_mix ~point_mix ~prepop ~mixes:r.clients ~instr:r.instr
  in
  Option.iter (fun path -> Spans.write path (Spans.all (client_spans @ [ sp ]))) spans_out;
  (* The clients' spans only: [sp] also holds the quiescent replay's. *)
  let spans = Spans.all client_spans in
  let traced_ops = sum (fun (c : Real.client) -> c.calls) traced in
  let ranges = sum (fun (c : Real.client) -> c.ranges) all in
  let update_lat = Array.append (Spans.durations Spans.Set_insert spans) (Spans.durations Spans.Set_remove spans) in
  Array.sort compare update_lat;
  let range_p50 = Stats.percentile (Spans.durations Spans.Range_query spans) 0.5 in
  let fold_ns = (List.find (fun x -> x.name = "range.fold_ns") alone_metrics).value in
  let sizes = S.shard_sizes set in
  let skew =
    if sizes = [||] then 0.
    else
      float_of_int (Array.fold_left max 0 sizes)
      /. (float_of_int (Array.fold_left ( + ) 0 sizes) /. float_of_int (Array.length sizes))
  in
  let range_rate =
    Stats.median
      (List.filter_map
         (fun (t, cs) ->
           if t then None
           else Some (float_of_int (sum (fun (c : Real.client) -> if Real.is_point c then 0 else c.trial_calls.(0)) cs)))
         segments)
  in
  let failed =
    match ok with
    | Ok () -> bad + sum (fun (c : Real.client) -> c.range_bad) all
    | Error _ -> attempted + replay_keys
  in
  let metrics =
    alone_metrics
    @ counters_per_op snap ~ops:traced_ops ~ins_ok:(sum (fun (c : Real.client) -> c.ins_ok) traced)
    @ [
        m "lists.update_success_ratio" "ratio"
          (per (ins + rem) (sum (fun (c : Real.client) -> c.updates) all));
        m "gc.minor_words_per_op" "words" ((g1.minor_words -. g0.minor_words) /. float_of_int attempted);
        m "gc.major_collections" "count" (float_of_int (g1.major_collections - g0.major_collections));
        m "gc.heap_mb" "MB" (heap_mb ());
        m "shard.skew" "ratio" skew;
        m "set.update_p50_ns" "ns" (Stats.percentile update_lat 0.5);
        m "range.queries_s" "1/s" range_rate;
        m "range.keys_per_query" "count" (per (sum (fun (c : Real.client) -> c.range_keys) all) ranges);
        m "range.collects_per_query" "ratio" (if ranges = 0 then 0. else range_p50 /. fold_ns);
        m "obs.probe_overhead" "ratio" (1. -. (rate true /. rate false));
      ]
    @ zeros [ ("sim.steps_per_op", "count"); ("sim.steps_s", "1/s"); ("sim.ops_per_kcycle", "ops/kcycle") ]
  in
  {
    attempted = attempted + replay_keys;
    failed;
    metrics;
    notes =
      [
        Printf.sprintf "instr.* replayed on the instrumented %s" r.instr_label;
        (match ok with Ok () -> "end check: ok" | Error e -> "end check FAILED: " ^ e);
      ];
  }

(* ---- the sim workload ---- *)

(* Episodes until [seconds] have passed (at least two), after a warm-up
   one; every other one traced when [traced_every].  Each episode keeps its
   own latency samples. *)
let episodes (s : Workload.sim) src prepop ~seconds ~traced_every =
  let sp = Spans.create () in
  let calls = Sim.calls src ~threads:s.threads s.mix in
  let warm =
    Sim.episode s.sim_impl ~calls ~prepop ~horizon:s.horizon
      ~lat:(Stats.buf ()) ~spans:None
  in
  let stop_at = Real.now () + int_of_float (seconds *. 1e9) in
  let rec loop i acc =
    if Real.now () >= stop_at && i >= 2 then List.rev acc
    else begin
      let traced = traced_every && i mod 2 = 1 in
      if traced then Probe.install (Probe.metrics ());
      let lat = Stats.buf () in
      let e =
        Sim.episode s.sim_impl ~calls ~prepop ~horizon:s.horizon
          ~lat ~spans:(if traced then Some sp else None)
      in
      if traced then Probe.uninstall ();
      loop (i + 1) ((traced, e, lat) :: acc)
    end
  in
  (warm, loop 0 [], sp)

let sim_outcome eps =
  let attempted = sum (fun (_, (e : Sim.t), _) -> e.ops) eps in
  let errors = List.filter_map (fun (_, (e : Sim.t), _) -> match e.ok with Ok () -> None | Error x -> Some x) eps in
  (attempted, (if errors = [] then 0 else attempted), errors)

let rate (e : Sim.t) = float_of_int e.ops /. float_of_int e.wall_ns *. 1e9

(* Medians over episodes.  The latency is the wall time per operation
   over windows of {!Sim.window} completions: the host runs all 72
   threads, so one operation's own latency cannot be separated from its
   neighbours'. *)
let sim_clean (w : Workload.t) (s : Workload.sim) src ~seconds =
  let prepop = Gen.prepopulation src ~key_range:w.key_range in
  let _, eps, _ = episodes s src prepop ~seconds ~traced_every:false in
  let attempted, failed, errors = sim_outcome eps in
  let med f = Stats.median (List.map f eps) in
  let pct q (_, _, lat) = Stats.percentile (Stats.sorted [ lat ]) q /. float_of_int Sim.window in
  {
    attempted;
    failed;
    metrics =
      end_to_end
        ~ops_s:(med (fun (_, e, _) -> rate e))
        ~p50:(med (pct 0.5)) ~p99:(med (pct 0.99))
        ~setup_s:(med (fun (_, (e : Sim.t), _) -> float_of_int e.setup_ns /. 1e9));
    notes =
      Printf.sprintf "latency windows: %d" (sum (fun (_, _, (l : Stats.buf)) -> l.n) eps)
      :: Printf.sprintf "episodes: %d of %.0f simulated cycles" (List.length eps) s.horizon
      :: (if errors = [] then [ "end checks: ok" ] else List.map (fun e -> "end check FAILED: " ^ e) errors);
  }

let sim_traced (w : Workload.t) (s : Workload.sim) src ~seconds ~spans_out =
  let prepop = Gen.prepopulation src ~key_range:w.key_range in
  M.reset ();
  let g0 = Gc.quick_stat () in
  let warm, eps, sp = episodes s src prepop ~seconds ~traced_every:true in
  let g1 = Gc.quick_stat () in
  let snap = M.snapshot () in
  let attempted, failed, errors = sim_outcome eps in
  let traced = List.filter_map (fun (t, e, _) -> if t then Some e else None) eps in
  let clean = List.filter_map (fun (t, e, _) -> if t then None else Some e) eps in
  let med f l = Stats.median (List.map f l) in
  let (module S : Vbl_lists.Set_intf.S) = s.sim_impl in
  let set =
    Layers.sequential.run (fun () ->
        let set = S.create () in
        Array.iter (fun k -> ignore (S.insert set k)) prepop;
        set)
  in
  let post = Spans.create () in
  let alone_metrics, bad =
    alone (module S) set Layers.sequential post src ~first_mix:s.mix ~point_mix:s.mix ~prepop
      ~mixes:[| s.mix |] ~instr:s.sim_impl
  in
  Option.iter (fun path -> Spans.write path (Spans.all [ sp; post ])) spans_out;
  let spans = Spans.all [ sp ] in
  let update_lat = Array.append (Spans.durations Spans.Set_insert spans) (Spans.durations Spans.Set_remove spans) in
  Array.sort compare update_lat;
  let traced_ops = sum (fun (e : Sim.t) -> e.ops) traced in
  let all_ops = sum (fun (_, (e : Sim.t), _) -> e.ops) eps + warm.ops in
  let metrics =
    alone_metrics
    @ counters_per_op snap ~ops:traced_ops ~ins_ok:0
    @ [
        m "lists.update_success_ratio" "ratio"
          (per (sum (fun (_, (e : Sim.t), _) -> e.updates_ok) eps) (sum (fun (_, (e : Sim.t), _) -> e.updates) eps));
        m "gc.minor_words_per_op" "words" ((g1.minor_words -. g0.minor_words) /. float_of_int all_ops);
        m "gc.major_collections" "count" (float_of_int (g1.major_collections - g0.major_collections));
        m "gc.heap_mb" "MB" (heap_mb ());
        m "set.update_p50_ns" "ns" (Stats.percentile update_lat 0.5);
        m "obs.probe_overhead" "ratio" (1. -. (med rate traced /. med rate clean));
        m "sim.steps_per_op" "count" (per warm.steps warm.ops);
        m "sim.steps_s" "1/s" (med (fun (e : Sim.t) -> float_of_int e.steps /. float_of_int e.wall_ns *. 1e9) clean);
        m "sim.ops_per_kcycle" "ops/kcycle" (Sim.ops_per_kcycle warm ~horizon:s.horizon);
      ]
    @ zeros
        [
          ("shard.skew", "ratio");
          ("range.queries_s", "1/s");
          ("range.keys_per_query", "count");
          ("range.collects_per_query", "ratio");
        ]
  in
  {
    attempted = attempted + replay_keys;
    failed = (if failed > 0 then attempted + replay_keys else bad);
    metrics;
    notes = (if errors = [] then [ "end checks: ok" ] else List.map (fun e -> "end check FAILED: " ^ e) errors);
  }

let run (w : Workload.t) ~seed ~seconds ~trace ~spans_out =
  let src = Gen.source seed in
  match (w.kind, trace) with
  | Workload.Real r, false -> real_clean w r src ~seconds
  | Workload.Real r, true -> real_traced w r src ~seconds ~spans_out
  | Workload.Sim s, false -> sim_clean w s src ~seconds
  | Workload.Sim s, true -> sim_traced w s src ~seconds ~spans_out
