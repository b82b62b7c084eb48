(* See finding.mli. *)

type rule = L1 | L3 | L4 | L5 | L6 | L7 | Parse

let rule_to_string = function
  | L1 -> "L1"
  | L3 -> "L3"
  | L4 -> "L4"
  | L5 -> "L5"
  | L6 -> "L6"
  | L7 -> "L7"
  | Parse -> "parse"

let rule_of_string = function
  | "L1" | "l1" -> Some L1
  | "L3" | "l3" -> Some L3
  | "L4" | "l4" -> Some L4
  | "L5" | "l5" -> Some L5
  | "L6" | "l6" -> Some L6
  | "L7" | "l7" -> Some L7
  | _ -> None

let describe = function
  | L1 -> "backend confinement: shared accesses only through the memory-backend functor"
  | L3 -> "static lock pairing: every acquisition released on all syntactic exits"
  | L4 -> "hot-path allocation: no closures, tuples, records or staged applications under [@hot]"
  | L5 ->
      "epoch-bracket discipline: in reclaiming modules, shared cells are touched only from a \
       balanced op_enter/op_exit bracket"
  | L6 ->
      "retire/use discipline: a retired node is poisoned (no later use, unlock or re-retire) and \
       retire follows the unlinking store/CAS"
  | L7 ->
      "publish-before-reachable: every cell of a fresh or recycled node is written before the \
       store/CAS (or version bump) that publishes it"
  | Parse -> "file does not parse"

let all_rules = [ L1; L3; L4; L5; L6; L7 ]

type t = { rule : rule; file : string; line : int; col : int; message : string }

let v ~rule ~file ~line ~col message = { rule; file; line; col; message }

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.message b.message

let to_string f =
  Printf.sprintf "%s:%d:%d: [%s] %s" f.file f.line f.col (rule_to_string f.rule) f.message

(* Hand-rolled JSON, as elsewhere in this repo (compare_bench). *)
let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json f =
  Printf.sprintf {|{"rule":"%s","file":"%s","line":%d,"col":%d,"message":"%s"}|}
    (rule_to_string f.rule) (json_escape f.file) f.line f.col (json_escape f.message)

(* One finding as a SARIF result object.  SARIF regions are 1-based in
   both coordinates; the linter's columns are 0-based (compiler
   convention), hence the [col + 1]. *)
let to_sarif_result f =
  Printf.sprintf
    {|{"ruleId":"%s","level":"error","message":{"text":"%s"},"locations":[{"physicalLocation":{"artifactLocation":{"uri":"%s"},"region":{"startLine":%d,"startColumn":%d}}}]}|}
    (rule_to_string f.rule) (json_escape f.message) (json_escape f.file) f.line (f.col + 1)
