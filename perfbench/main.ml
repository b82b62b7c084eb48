(* perfbench: run one workload of the repository benchmark.

   main.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]

   Prints a table of the metrics, then, as its last line, one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  --spans writes
   the traced run's spans as JSON lines. *)

open Perfbench

let usage () =
  Printf.eprintf "usage: main.exe --workload {%s} --seed N --seconds S --trace 0|1 [--spans FILE]\n"
    (String.concat "|" (List.map (fun (w : Workload.t) -> w.name) Workload.all));
  exit 2

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x else Printf.sprintf "%.17g" x

let () =
  let workload = ref "" and seed = ref None and seconds = ref 0. and trace = ref (-1) and spans = ref None in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--spans", Arg.String (fun f -> spans := Some f), "FILE");
    ]
  in
  (try Arg.parse_argv Sys.argv spec (fun _ -> usage ()) "" with Arg.Bad _ | Arg.Help _ -> usage ());
  let w = match Workload.find !workload with Some w -> w | None -> usage () in
  let seed = match !seed with Some s -> s | None -> usage () in
  if !seconds < 0.5 || (!trace <> 0 && !trace <> 1) then usage ();
  let o = Bench.run w ~seed ~seconds:!seconds ~trace:(!trace = 1) ~spans_out:!spans in
  List.iter
    (fun (x : Bench.metric) ->
      if not (Float.is_finite x.value) then begin
        Printf.eprintf "metric %s is not finite\n" x.name;
        exit 1
      end)
    o.metrics;
  Printf.printf "workload %s  seed %d  seconds %g  trace %d\n" w.name seed !seconds !trace;
  List.iter (fun (x : Bench.metric) -> Printf.printf "  %-42s %18.4f %s\n" x.name x.value x.unit) o.metrics;
  List.iter (Printf.printf "  %s\n") o.notes;
  Printf.printf "  failed_ops %.6f (%d of %d)\n" (float_of_int o.failed /. float_of_int (max 1 o.attempted))
    o.failed o.attempted;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" (o.failed = 0)
    (max 1 o.attempted) o.failed
    (String.concat ", "
       (List.map
          (fun (x : Bench.metric) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit)
          o.metrics))
