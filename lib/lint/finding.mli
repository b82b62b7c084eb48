(** Lint findings: a rule identifier plus a [file:line:col] span and a
    human-readable message.  The rules themselves live in {!Rules}; this
    module only knows how to name, order and print them. *)

type rule =
  | L1  (** backend confinement — no raw [Atomic]/[Mutex]/mutation outside [M.] *)
  | L3  (** static lock pairing — acquisitions released on all syntactic exits *)
  | L4  (** hot-path allocation — no closures/tuples/records under [@hot] *)
  | L5
      (** epoch-bracket discipline — in reclaiming modules, backend cells are
          touched only from a balanced [op_enter]/[op_exit] bracket, checked
          interprocedurally through the {!Summaries} call-graph pass *)
  | L6
      (** retire/use discipline — a value passed to [M.retire] is poisoned for
          the rest of the function, and retire follows the unlinking store/CAS *)
  | L7
      (** publish-before-reachable — every cell of a fresh/recycled node is
          written before the store/CAS (or version bump) that publishes it *)
  | Parse  (** the file failed to parse (reported like a finding so a broken
               file cannot slip through a lint run unnoticed) *)

val rule_to_string : rule -> string
val rule_of_string : string -> rule option
(** Recognizes ["L1"] and ["L3"]..["L7"] (case-insensitive).  ["L2"] (the
    retired named-guard rule; ids were kept stable) and [Parse] are not
    selectable. *)

val describe : rule -> string
(** One-line summary of what the rule enforces. *)

val all_rules : rule list
(** The six selectable rules, in order. *)

type t = { rule : rule; file : string; line : int; col : int; message : string }

val v : rule:rule -> file:string -> line:int -> col:int -> string -> t
val compare : t -> t -> int
(** Order by file, then line, then column — the order reports print in. *)

val to_string : t -> string
(** ["file:line:col: [L1] message"]. *)

val to_json : t -> string
(** One finding as a JSON object. *)

val to_sarif_result : t -> string
(** One finding as a SARIF 2.1.0 [result] object (1-based columns). *)

val json_escape : string -> string
(** Escape a string for embedding in hand-rolled JSON output. *)
