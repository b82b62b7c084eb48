(* Tests for the memory backends: Real_mem semantics, Instr_mem semantics
   under a sequential handler, and the exactness of the instrumentation
   (every access yields exactly one effect, in program order). *)

module Real = Vbl_memops.Real_mem
module Instr = Vbl_memops.Instr_mem

let real_tests =
  [
    Alcotest.test_case "cells hold values" `Quick (fun () ->
        let c = Real.make (Real.site "") "c" 7 in
        Alcotest.(check int) "get" 7 (Real.get c);
        Real.set c 9;
        Alcotest.(check int) "after set" 9 (Real.get c));
    Alcotest.test_case "cas uses physical equality" `Quick (fun () ->
        let a = ref 1 and b = ref 1 in
        let c = Real.make (Real.site "") "c" a in
        Alcotest.(check bool) "wrong witness" false (Real.cas c b a);
        Alcotest.(check bool) "right witness" true (Real.cas c a b);
        Alcotest.(check bool) "stale witness" false (Real.cas c a a));
    Alcotest.test_case "locks exclude" `Quick (fun () ->
        let l = Real.make_lock (Real.site "") "l" in
        Alcotest.(check bool) "free" false (Real.lock_held l);
        Alcotest.(check bool) "try" true (Real.try_lock l);
        Alcotest.(check bool) "held" true (Real.lock_held l);
        Alcotest.(check bool) "try again" false (Real.try_lock l);
        Real.unlock l;
        Alcotest.(check bool) "released" false (Real.lock_held l));
    Alcotest.test_case "instrumentation hooks are no-ops" `Quick (fun () ->
        Real.touch (Real.node "X" 3) "pair");
  ]

let instr_tests =
  [
    Alcotest.test_case "run_sequential resumes every access" `Quick (fun () ->
        let r =
          Instr.run_sequential (fun () ->
              let c = Instr.make (Instr.site "") "c" 1 in
              Instr.set c 2;
              let read = Instr.get c in
              let cas_bonus = if Instr.cas c 2 5 then 10 else 0 in
              read + cas_bonus)
        in
        Alcotest.(check int) "result" 12 r);
    Alcotest.test_case "cas semantics mirror the real backend" `Quick (fun () ->
        Instr.run_sequential (fun () ->
            let a = ref 1 and b = ref 1 in
            let c = Instr.make (Instr.site "") "c" a in
            Alcotest.(check bool) "wrong witness" false (Instr.cas c b a);
            Alcotest.(check bool) "right witness" true (Instr.cas c a b)));
    Alcotest.test_case "locks work sequentially" `Quick (fun () ->
        Instr.run_sequential (fun () ->
            let l = Instr.make_lock (Instr.site "") "l" in
            Instr.lock l;
            Alcotest.(check bool) "held" true (Instr.lock_held l);
            Alcotest.(check bool) "try fails" false (Instr.try_lock l);
            Instr.unlock l;
            Alcotest.(check bool) "free" false (Instr.lock_held l);
            Alcotest.(check bool) "retake" true (Instr.try_lock l);
            Instr.unlock l));
    Alcotest.test_case "node labels spell out the sentinel keys" `Quick (fun () ->
        let module N = Vbl_memops.Naming in
        Alcotest.(check (list string))
          "labels"
          [ "X5"; "h"; "t"; "N3"; "rt"; "Lmin"; "Lmax"; "R7"; "Rmax" ]
          [
            N.node "X" 5;
            N.node "X" min_int;
            N.node "X" max_int;
            N.node "N" 3;
            N.node "N" max_int;
            N.node "L" min_int;
            N.node "L" max_int;
            N.node "R" 7;
            N.node "R" max_int;
          ];
        Alcotest.(check (list string))
          "cells" [ "X5.next"; "lock" ] [ N.cell "X5" "next"; N.cell "" "lock" ]);
    Alcotest.test_case "effects arrive in program order with names" `Quick (fun () ->
        (* Collect the access stream of a tiny program via a deep handler. *)
        let log = ref [] in
        let lines = ref [] in
        Effect.Deep.match_with
          (fun () ->
            let s = Instr.node "X" 5 in
            let c = Instr.make s "val" 1 in
            ignore (Instr.get c);
            Instr.set c 2;
            ignore (Instr.cas c 2 3);
            Instr.touch s "pair";
            ignore (Instr.get (Instr.make (Instr.site "h") "next" 0));
            ignore (Instr.get (Instr.make (Instr.site "") "c" 0)))
          ()
          {
            retc = Fun.id;
            exnc = raise;
            effc =
              (fun (type a) (eff : a Effect.t) ->
                match eff with
                | Instr.Access a ->
                    Some
                      (fun (k : (a, unit) Effect.Deep.continuation) ->
                        log := (a.Instr.kind, a.Instr.name) :: !log;
                        lines := a.Instr.line :: !lines;
                        Effect.Deep.continue k ())
                | _ -> None);
          };
        Alcotest.(check (list (pair string string)))
          "stream"
          [
            ("new", "X5");
            ("R", "X5.val");
            ("W", "X5.val");
            ("CAS", "X5.val");
            ("touch", "X5.pair");
            ("R", "h.next");
            ("R", "c");
          ]
          (List.rev_map
             (fun (k, n) -> (Format.asprintf "%a" Instr.pp_kind k, n))
             !log);
        (* One line per site: the node's five steps share one, each
           further site opens a fresh one. *)
        match List.rev !lines with
        | [ a; b; c; d; e; h; anon ] ->
            Alcotest.(check bool)
              "node steps share a line" true
              (List.for_all (( = ) a) [ b; c; d; e ]);
            Alcotest.(check bool)
              "sites get distinct lines" true
              (a <> h && h <> anon && a <> anon)
        | _ -> Alcotest.fail "expected seven steps");
    Alcotest.test_case "last_cas_result tracks success" `Quick (fun () ->
        Instr.run_sequential (fun () ->
            let c = Instr.make (Instr.site "") "c" 1 in
            ignore (Instr.cas c 1 2);
            Alcotest.(check bool) "success" true !Instr.last_cas_result;
            ignore (Instr.cas c 1 2);
            Alcotest.(check bool) "failure" false !Instr.last_cas_result));
    Alcotest.test_case "run_sequential propagates exceptions" `Quick (fun () ->
        Alcotest.check_raises "raises" Exit (fun () ->
            Instr.run_sequential (fun () ->
                let c = Instr.make (Instr.site "") "c" 0 in
                Instr.set c 1;
                raise Exit)));
  ]

(* Backend parity: one mixed workload through Real_mem and Instr_mem must
   agree on every operation result and on the final abstract set. *)
let parity_tests =
  [
    Alcotest.test_case "mixed workload agrees across backends" `Quick (fun () ->
        let r = Vbl_memops.Mem_check.check_parity () in
        List.iter (fun m -> Alcotest.fail m) r.Vbl_memops.Mem_check.mismatches;
        Alcotest.(check (list int))
          "expected final set" [ 0; 1; 5; 6; 7 ] r.Vbl_memops.Mem_check.real_set);
  ]

let () =
  Alcotest.run "memops"
    [ ("real", real_tests); ("instr", instr_tests); ("parity", parity_tests) ]
