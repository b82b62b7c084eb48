(** Step patterns: how schedule scripts refer to implementation steps, in
    the paper's node-level vocabulary ([R(X1)], [W(h)], [new(X2)], ...).

    Cells are classified by their {!Vbl_memops.Naming} field tag:
    [val]/[next]/[amr] are {e data}; [del]/[lock] cells, pair touches and
    lock operations are {e metadata} that directed driving may skip. *)

type t =
  | Read_node of string  (** a read/touch of any data cell of the node *)
  | Write_node of string
      (** an {e effective} link write: a write, or a CAS that must
          succeed, on the node's [next]/[amr] cell *)
  | Mark_node of string
      (** logical deletion: an effective write/CAS on the node's [del]
          cell or (Harris-style encodings) its link cell *)
  | New_node of string
  | Lock_node of string  (** a successful lock acquisition on the node *)
  | Unlock_node of string
  | Exact of Vbl_memops.Instr_mem.access_kind * string
      (** full cell name, exact kind — used by mechanically generated
          scripts to avoid aliasing *)

val node_of_cell : string -> string
(** ["X1.next"] -> ["X1"]. *)

val field_of_cell : string -> string
(** ["X1.next"] -> ["next"]; [""] when there is no field part. *)

val matches : t -> Vbl_memops.Instr_mem.access -> bool
(** Purely syntactic; effectiveness of CAS/lock steps is checked by the
    driver after execution (see {!Directed}). *)

val requires_success : t -> bool
(** Must a matched CAS/lock attempt succeed for the step to count? *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
