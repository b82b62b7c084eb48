(** Driver for the static concurrency-discipline linter: parse [.ml]
    files with the compiler's own parser and run the {!Rules} over them.
    This replaces the grep-based [lint_atomics.sh]: because it works on
    the AST it resolves local aliases and opens, and never false-positives
    on comments or string literals.

    A run over a root parses every file first, computes the {!Summaries}
    pass over all of them, and only then fires the rules — so L3's
    releaser inference and L5's call-graph reachability see each file
    whole. *)

val default_targets : (string * Finding.rule list) list
(** The directories the discipline applies to, each with the rules that
    make sense there: the structure directories ([lib/lists],
    [lib/skiplists], [lib/shard]) get all six rules; [lib/trees] is
    capped at L1, L3 and L4 until reclamation lands there (L5–L7 constrain
    epoch-bracketed, retiring code only); [lib/reclaim] is backend code —
    it implements the cells and pools the functor hands out, so raw
    atomics and mutable fields are its job — and is linted with L3–L7
    only. *)

val default_dirs : string list
(** [List.map fst default_targets]. *)

val lint_file :
  ?rules:Finding.rule list -> ?display_name:string -> string -> Finding.t list
(** Lint one file ([rules] defaults to all six).  [display_name] is the
    path recorded in findings (defaults to the path itself).  The summary
    pass sees just this file.  A file that does not parse yields a single
    {!Finding.Parse} finding rather than being skipped. *)

val lint_targets :
  ?rules:Finding.rule list ->
  targets:(string * Finding.rule list) list ->
  string ->
  (Finding.t list, string) result
(** Lint every [.ml] file in each target directory under the given root,
    intersecting [rules] with the directory's cap.  [Error msg] if any
    requested directory is missing — the shell lint silently skipped
    absent directories; this one refuses. *)

val lint_root :
  ?rules:Finding.rule list ->
  ?targets:(string * Finding.rule list) list ->
  string ->
  (Finding.t list, string) result
(** [lint_targets] with [targets] defaulting to {!default_targets}. *)
