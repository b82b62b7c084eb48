(** Closed-loop clients on real domains.

    A segment runs one client per mix, client 0 on the calling domain and
    the others on spawned domains, for a warm-up and then [n_trials]
    trials of [trial_ns].  Clients replay their pre-generated calls
    ({!Gen.buffer}) against the set's public functions directly.  Only a
    fixed sample of a client's calls reads the clock (1 in
    {!point_sample} point operations, every range query): those reads
    time the sampled call, and they are also the only moments a client
    looks at the time to attribute its calls to a trial or to stop.  In a
    traced segment, 1 in {!span_every} calls also records spans around
    fetching the call ([gen]), the shard router and the set. *)

module type SET = Workload.SET

let now = Vbl_obs.Contention.now_ns

(** Point calls are sampled 1 in 64; range queries, which cost tens of
    microseconds, every time.  Fixed, so every commit pays the same clock
    cost. *)
let point_sample = 64

let sample_mask = function Gen.Point _ -> point_sample - 1 | Gen.Range _ -> 0

(** Spans cover a sparser subset of the sampled calls, so a traced run's
    span buffers stay a few megabytes. *)
let span_every = function Gen.Point _ -> 1024 | Gen.Range _ -> 16

type client = {
  mix : Gen.mix;
  calls : int;  (** warm-up included *)
  trial_calls : int array;
  lat : Stats.buf;  (** sampled latencies in the measured trials, ns *)
  updates : int;
  ins_ok : int;
  rem_ok : int;
  range_bad : int;  (** range results not strictly ascending inside the window *)
  range_keys : int;
  ranges : int;
  spans : Spans.t option;
}

let rec in_window prev hi = function
  | [] -> true
  | x :: tl -> x > prev && x <= hi && in_window x hi tl

let client (type t) (module S : SET with type t = t) (set : t) ~mix ~(calls : Gen.buffer) ~first
    ~start ~trial_ns ~n_trials ~traced ~route =
  let stop_at = start + (n_trials * trial_ns) in
  let trial_calls = Array.make n_trials 0 and lat = Stats.buf () in
  let spans = if traced then Some (Spans.create ()) else None in
  let mask = sample_mask mix and span_mask = span_every mix - 1 in
  let width = match mix with Gen.Range { width; _ } -> width | Gen.Point _ -> 0 in
  let ins = ref 0 and rem = ref 0 and upd = ref 0 in
  let bad = ref 0 and keys = ref 0 and ranges = ref 0 in
  let apply op =
    let k = Gen.key op in
    match Gen.kind op with
    | 0 ->
        incr upd;
        if S.insert set k then incr ins
    | 1 ->
        incr upd;
        if S.remove set k then incr rem
    | 2 -> ignore (S.contains set k)
    | _ ->
        let hi = k + width - 1 in
        let r = S.range_query set k hi in
        incr ranges;
        keys := !keys + List.length r;
        if not (in_window (k - 1) hi r) then incr bad
  in
  (* [n] indexes the client's call buffer and carries over between the
     segments of a traced run. *)
  let n = ref first and last = ref first and running = ref true in
  (* Attribute the calls since the previous sample to the trial the
     sample ended in; stop at the first sample past the end. *)
  let account t_end =
    if t_end >= start then begin
      let i = min (n_trials - 1) ((t_end - start) / trial_ns) in
      trial_calls.(i) <- trial_calls.(i) + !n + 1 - !last
    end;
    last := !n + 1;
    if t_end >= stop_at then running := false
  in
  while !running do
    if !n land mask <> 0 then apply (Gen.call calls !n)
    else begin
      match spans with
      | Some sp when !n land span_mask = 0 ->
          let a = now () in
          let op = Gen.call calls !n in
          let b = now () in
          let r =
            if route then begin
              ignore (Sys.opaque_identity (Vbl_shard.Registry.Vbl_sharded_8_reclaim.shard_of (Gen.key op)));
              now ()
            end
            else b
          in
          apply op;
          let e = now () in
          if r >= start then Stats.push lat (e - r);
          let op_id = Spans.op_id sp !n in
          let root = Spans.add sp ~op:op_id Spans.Op ~start:a ~stop:e in
          ignore (Spans.add sp ~parent:root ~op:op_id Spans.Gen ~start:a ~stop:b);
          if route then ignore (Spans.add sp ~parent:root ~op:op_id Spans.Shard_route ~start:b ~stop:r);
          let name = if Gen.kind op = Gen.range then Spans.Range_query else Spans.set_call (Gen.kind op) in
          ignore (Spans.add sp ~parent:root ~op:op_id name ~start:r ~stop:e);
          account e
      | _ ->
          let op = Gen.call calls !n in
          let b = now () in
          apply op;
          let e = now () in
          if b >= start then Stats.push lat (e - b);
          account e
    end;
    incr n
  done;
  {
    mix;
    calls = !n - first;
    trial_calls;
    lat;
    updates = !upd;
    ins_ok = !ins;
    rem_ok = !rem;
    range_bad = !bad;
    range_keys = !keys;
    ranges = !ranges;
    spans;
  }

(** One concurrent session: every client starts together, warms up for
    [warmup_ns], then measures [n_trials] trials.  [calls.(c)] is client
    [c]'s call buffer and [cursors.(c)] its position in it, advanced. *)
let segment (type t) (module S : SET with type t = t) (set : t) ~(mixes : Gen.mix array) ~calls
    ~cursors ~warmup_ns ~trial_ns ~n_trials ~traced ~route =
  let go = Atomic.make 0 in
  let run c () =
    while Atomic.get go = 0 do
      Domain.cpu_relax ()
    done;
    client (module S) set ~mix:mixes.(c) ~calls:calls.(c) ~first:cursors.(c)
      ~start:(Atomic.get go + warmup_ns) ~trial_ns ~n_trials ~traced ~route
  in
  let others = List.init (Array.length mixes - 1) (fun i -> Domain.spawn (run (i + 1))) in
  Atomic.set go (now ());
  let first = run 0 () in
  let clients = first :: List.map Domain.join others in
  List.iteri (fun c cl -> cursors.(c) <- cursors.(c) + cl.calls) clients;
  clients

let prepopulate (type t) (module S : SET with type t = t) prepop =
  let set = S.create () in
  Array.iter (fun k -> ignore (S.insert set k)) prepop;
  set

(** Quiescent end checks: structural invariants, and the size the
    clients' successful updates account for. *)
let check (type t) (module S : SET with type t = t) (set : t) ~expected =
  match S.check_invariants set with
  | Error e -> Error e
  | Ok () ->
      let n = List.length (S.to_list set) in
      if n = expected && S.size set = expected then Ok ()
      else Error (Printf.sprintf "size %d (listed %d), expected %d" (S.size set) n expected)

let is_point c = match c.mix with Gen.Point _ -> true | Gen.Range _ -> false

(** Point-call throughput of each trial, calls/s. *)
let trial_rates clients ~trial_ns ~n_trials =
  List.init n_trials (fun i ->
      let calls = List.fold_left (fun acc c -> if is_point c then acc + c.trial_calls.(i) else acc) 0 clients in
      float_of_int calls /. (float_of_int trial_ns /. 1e9))
