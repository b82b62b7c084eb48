(** Exact shared-memory access counts: a single-threaded replay of a
    fixed op-stream prefix on an instrumented set, counting the
    {!Vbl_memops.Instr_mem.Access} effects each kind of access performs.
    Nothing here reads a clock, so the counts are a pure function of the
    generated inputs. *)

module I = Vbl_memops.Instr_mem

type counts = {
  ops : int;
  reads : int;
  writes : int;
  cas : int;
  lock_tries : int;
  new_nodes : int;
}

(** Apply one generated operation; [width] is the range-query width. *)
let apply (type t) (module S : Vbl_lists.Set_intf.S with type t = t) (set : t) ~width op =
  let k = Gen.key op in
  match Gen.kind op with
  | 0 -> ignore (S.insert set k)
  | 1 -> ignore (S.remove set k)
  | 2 -> ignore (S.contains set k)
  | _ -> ignore (S.range_query set k (k + width - 1))

(** The first [n] operations of each client's stream, interleaved
    round-robin. *)
let interleaved src mixes n =
  let prefixes = Array.mapi (fun c mix -> Gen.prefix src ~client:c mix n) mixes in
  Array.init (n * Array.length mixes) (fun i -> prefixes.(i mod Array.length mixes).(i / Array.length mixes))

let width_of mixes =
  Array.fold_left (fun w -> function Gen.Range { width; _ } -> width | Gen.Point _ -> w) 0 mixes

let replay (module S : Vbl_lists.Set_intf.S) ~prepop ~mixes ~n src =
  let ops = interleaved src mixes n and width = width_of mixes in
  let set =
    I.run_sequential (fun () ->
        let set = S.create () in
        Array.iter (fun k -> ignore (S.insert set k)) prepop;
        set)
  in
  let reads = ref 0 and writes = ref 0 and cas = ref 0 and lock_tries = ref 0 and new_nodes = ref 0 in
  let count (a : I.access) =
    match a.kind with
    | I.Read | I.Touch -> incr reads
    | I.Write -> incr writes
    | I.Cas -> incr cas
    | I.Lock_try -> incr lock_tries
    | I.New_node -> incr new_nodes
    | I.Lock_release -> ()
  in
  Effect.Deep.match_with
    (fun () -> Array.iter (apply (module S) set ~width) ops)
    ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | I.Access a ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  count a;
                  Effect.Deep.continue k ())
          | I.Release l ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  I.apply_release l;
                  Effect.Deep.continue k ())
          | I.Lock_busy l ->
              Some (fun _ -> failwith ("Instr_count.replay: deadlock on " ^ l.I.l_name))
          | _ -> None);
    };
  {
    ops = Array.length ops;
    reads = !reads;
    writes = !writes;
    cas = !cas;
    lock_tries = !lock_tries;
    new_nodes = !new_nodes;
  }
