(** Step patterns: how schedule scripts refer to implementation steps.

    The paper's figures name steps at node granularity — [R(X1)] reads any
    field of node X1, [W(h)] effectively writes the head's successor link,
    [new(X2)] creates the node storing 2.  Patterns classify the cells named
    by {!Vbl_memops.Naming}: [val]/[next]/[amr] cells are {e data}, [del]/[lock] cells,
    touches and lock operations are {e metadata}.  Directed driving skips a
    thread's non-matching steps, mirroring the figures' "not all steps are
    depicted". *)

module Instr = Vbl_memops.Instr_mem

type t =
  | Read_node of string  (** a [Read]/[Touch] of any data cell of the node *)
  | Write_node of string
      (** an {e effective} link write on the node: a [Write], or a [Cas]
          that must succeed, on its [next]/[amr] cell *)
  | Mark_node of string
      (** logical deletion of the node: a [Write]/successful [Cas] on its
          [del] cell or (for Harris-Michael encodings) its [next]/[amr]
          cell — figures write this as "W(X), logical deletion" *)
  | New_node of string  (** creation of the node *)
  | Lock_node of string  (** a successful lock acquisition on the node *)
  | Unlock_node of string
  | Exact of Instr.access_kind * string  (** full cell name, exact kind *)

let node_of_cell name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let field_of_cell name =
  match String.index_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> ""

(* Skip-list towers name their per-level links ["next0"], ["next1"], … *)
let is_level_link f =
  String.length f > 4
  && String.sub f 0 4 = "next"
  && String.for_all (function '0' .. '9' -> true | _ -> false)
       (String.sub f 4 (String.length f - 4))

let is_data_field = function
  | "val" | "next" | "amr" | "key" | "left" | "right" -> true
  | f -> is_level_link f

let is_link_field = function
  | "next" | "amr" | "left" | "right" -> true
  | f -> is_level_link f

(** [matches pat access] — purely syntactic match; CAS success is checked
    by the driver after executing the step (see {!Directed}). *)
let matches pat (a : Instr.access) =
  let node = node_of_cell a.name and field = field_of_cell a.name in
  match (pat, a.kind) with
  | Read_node n, Instr.Read -> node = n && (is_data_field field || field = "")
  | Read_node n, Instr.Touch -> node = n (* the dependent pair load counts as a read *)
  | Read_node _, _ -> false
  | Write_node n, (Instr.Write | Instr.Cas) -> node = n && is_link_field field
  | Write_node _, _ -> false
  | Mark_node n, (Instr.Write | Instr.Cas) ->
      node = n && (field = "del" || is_link_field field)
  | Mark_node _, _ -> false
  | New_node n, Instr.New_node -> a.name = n
  | New_node _, _ -> false
  | Lock_node n, Instr.Lock_try -> node = n
  | Lock_node _, _ -> false
  | Unlock_node n, Instr.Lock_release -> node = n
  | Unlock_node _, _ -> false
  | Exact (k, name), _ -> a.kind = k && a.name = name

(** Does this pattern require the executed CAS/lock attempt to succeed? *)
let requires_success = function
  | Write_node _ | Mark_node _ | Lock_node _ -> true
  | Read_node _ | New_node _ | Unlock_node _ | Exact _ -> false

let pp ppf = function
  | Read_node n -> Format.fprintf ppf "R(%s)" n
  | Write_node n -> Format.fprintf ppf "W(%s)" n
  | Mark_node n -> Format.fprintf ppf "mark(%s)" n
  | New_node n -> Format.fprintf ppf "new(%s)" n
  | Lock_node n -> Format.fprintf ppf "lock(%s)" n
  | Unlock_node n -> Format.fprintf ppf "unlock(%s)" n
  | Exact (k, name) -> Format.fprintf ppf "%a(%s)" Instr.pp_kind k name

let to_string p = Format.asprintf "%a" pp p
