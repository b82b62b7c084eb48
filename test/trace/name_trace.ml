(* Step-name golden.  Every set instantiated on an instrumented backend
   runs the same sequential script of point operations (create,
   pre-populate, then inserts/removes/contains on a few keys) under a
   recording handler; each operation prints as one line holding its
   result and its full access trace, [kind(name)] per step.  Schedule
   scripts, the DPOR explorer and the cost simulator all address steps by
   these names, so any change to how a step is named, ordered or counted
   shows up as a diff against name_trace.expected. *)

module I = Vbl_memops.Instr_mem

type 'a outcome = Done of 'a | Busy of string | Raised of string

(* Resume every access at once and record it; apply releases in the
   handler (as schedulers do) and record them as [unlock] steps.  A
   blocking lock on a held lock cannot make progress sequentially: the
   operation is abandoned and the line says so. *)
let traced (f : unit -> 'a) : 'a outcome * string list =
  let steps = ref [] in
  let r =
    Effect.Deep.match_with f ()
      {
        retc = (fun v -> Done v);
        exnc = (fun e -> Raised (Printexc.to_string e));
        effc =
          (fun (type b) (eff : b Effect.t) ->
            match eff with
            | I.Access a ->
                Some
                  (fun (k : (b, _) Effect.Deep.continuation) ->
                    steps := Format.asprintf "%a" I.pp_access a :: !steps;
                    Effect.Deep.continue k ())
            | I.Release l ->
                Some
                  (fun (k : (b, _) Effect.Deep.continuation) ->
                    steps := ("unlock(" ^ l.I.l_name ^ ")") :: !steps;
                    I.apply_release l;
                    Effect.Deep.continue k ())
            | I.Lock_busy l -> Some (fun _ -> Busy l.I.l_name)
            | _ -> None);
      }
  in
  (r, List.rev !steps)

let print_line set label r steps =
  let result =
    match r with
    | Done s -> s
    | Busy l -> "blocked on " ^ l
    | Raised e -> "raised " ^ e
  in
  Printf.printf "%s %s = %s:%s\n" set label result
    (String.concat "" (List.map (fun s -> " " ^ s) steps))

let prepopulate = [ 2; 4; 6 ]

let script =
  [
    ("contains", 4);
    ("contains", 3);
    ("insert", 3);
    ("insert", 3);
    ("remove", 4);
    ("remove", 4);
    ("contains", 4);
    ("insert", 5);
    ("remove", 2);
    ("insert", 1);
    ("remove", 6);
    ("contains", 6);
    ("remove", 1);
    ("insert", 4);
  ]

let run (module S : Vbl_lists.Set_intf.S) =
  match traced S.create with
  | (Busy _ | Raised _) as r, steps -> print_line S.name "create" r steps
  | Done t, steps ->
      print_line S.name "create" (Done "()") steps;
      let op kind v =
        let f =
          match kind with
          | "insert" -> S.insert
          | "remove" -> S.remove
          | _ -> S.contains
        in
        let r, steps = traced (fun () -> f t v) in
        let r = match r with Done b -> Done (string_of_bool b) | (Busy _ | Raised _) as r -> r in
        print_line S.name (Printf.sprintf "%s %d" kind v) r steps
      in
      List.iter (op "insert") prepopulate;
      List.iter (fun (kind, v) -> op kind v) script

let sets : (module Vbl_lists.Set_intf.S) list =
  Vbl_sched.Drive.instrumented
  @ [
      (module Vbl_skiplists.Registry.Lazy_skip_i : Vbl_lists.Set_intf.S);
      (module Vbl_skiplists.Registry.Vbl_skip_i : Vbl_lists.Set_intf.S);
      (module Vbl_skiplists.Registry.Lockfree_skip_i : Vbl_lists.Set_intf.S);
      (module Vbl_trees.Registry.Seq_bst_i : Vbl_lists.Set_intf.S);
      (module Vbl_trees.Registry.Coarse_bst_i : Vbl_lists.Set_intf.S);
      (module Vbl_trees.Registry.Lazy_bst_i : Vbl_lists.Set_intf.S);
      (module Vbl_trees.Registry.Lockfree_bst_i : Vbl_lists.Set_intf.S);
      (module Vbl_trees.Registry.Vbl_bst_i : Vbl_lists.Set_intf.S);
      (module Vbl_shard.Registry.Vbl_sharded_2_i : Vbl_lists.Set_intf.S);
      (module Vbl_shard.Registry.Vbl_sharded_4_i : Vbl_lists.Set_intf.S);
      (module Vbl_shard.Registry.Vbl_sharded_8_i : Vbl_lists.Set_intf.S);
      (module Vbl_shard.Registry.Vbl_sharded_16_i : Vbl_lists.Set_intf.S);
    ]
  @ Vbl_analysis.Mutants.all

let () = List.iter run sets
