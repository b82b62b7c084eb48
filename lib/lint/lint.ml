(* See lint.mli. *)

let structure_dirs = [ "lib/lists"; "lib/skiplists"; "lib/trees"; "lib/shard" ]

let backend_rules = Finding.[ L3; L4; L5; L6; L7 ]

(* The source-discipline subset for non-reclaiming algorithm directories:
   the reclamation-safety rules L5–L7 only constrain code that brackets
   epochs and retires nodes, which lib/trees does not do yet — cap it at
   L1, L3 and L4 until a tree gains a -reclaim twin. *)
let non_reclaiming_rules = Finding.[ L1; L3; L4 ]

let default_targets =
  List.map
    (fun d ->
      (d, if d = "lib/trees" then non_reclaiming_rules else Finding.all_rules))
    structure_dirs
  @ [ ("lib/reclaim", backend_rules) ]

let default_dirs = List.map fst default_targets

let parse_impl ~display_name path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Location.init lexbuf display_name;
      match Parse.implementation lexbuf with
      | str -> Ok str
      | exception Syntaxerr.Error err ->
          let loc = Syntaxerr.location_of_error err in
          let p = loc.Location.loc_start in
          Error (p.pos_lnum, p.pos_cnum - p.pos_bol, "syntax error")
      | exception exn -> Error (1, 0, "cannot parse: " ^ Printexc.to_string exn))

let lint_file ?(rules = Finding.all_rules) ?display_name path =
  let display_name = Option.value display_name ~default:path in
  match parse_impl ~display_name path with
  | Ok str ->
      let summaries = Summaries.of_sources [ (display_name, str) ] in
      Rules.file ~summaries:(Summaries.find summaries display_name) ~rules ~file:display_name str
  | Error (line, col, msg) -> [ Finding.v ~rule:Finding.Parse ~file:display_name ~line ~col msg ]

let ml_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ml")
  |> List.sort String.compare

let inter rules cap = List.filter (fun r -> List.mem r cap) rules

let lint_targets ?(rules = Finding.all_rules) ~targets root =
  let missing =
    List.filter (fun (d, _) -> not (Sys.file_exists (Filename.concat root d))) targets
  in
  match missing with
  | _ :: _ ->
      Error
        (Printf.sprintf "missing directories under %s: %s" root
           (String.concat ", " (List.map fst missing)))
  | [] ->
      (* Parse everything first: the summary pass wants every file of a
         run in hand before any rule fires. *)
      let parsed =
        List.concat_map
          (fun (dir, cap) ->
            ml_files (Filename.concat root dir)
            |> List.map (fun f ->
                   let path = Filename.concat (Filename.concat root dir) f in
                   let display_name = Filename.concat dir f in
                   (display_name, cap, parse_impl ~display_name path)))
          targets
      in
      let sources =
        List.filter_map
          (fun (name, _, r) -> match r with Ok str -> Some (name, str) | Error _ -> None)
          parsed
      in
      let summaries = Summaries.of_sources sources in
      Ok
        (List.concat_map
           (fun (name, cap, r) ->
             match r with
             | Ok str ->
                 Rules.file
                   ~summaries:(Summaries.find summaries name)
                   ~rules:(inter rules cap) ~file:name str
             | Error (line, col, msg) ->
                 [ Finding.v ~rule:Finding.Parse ~file:name ~line ~col msg ])
           parsed)

let lint_root ?(rules = Finding.all_rules) ?targets root =
  let targets = Option.value targets ~default:default_targets in
  lint_targets ~rules ~targets root
