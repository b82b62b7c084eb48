(** Step-name conventions of the instrumented backends: the paper writes
    [h] for the head, [X_i] for the node storing value [i].  Schedule
    scripts refer to implementation steps through these names; algorithms
    only supply constant prefixes, labels and tags. *)

val node : string -> int -> string
(** [node prefix key]: [prefix ^ key], with the sentinel keys spelled out —
    list nodes (prefix ["X"]) at [min_int]/[max_int] are ["h"]/["t"], the
    BST node (prefix ["N"]) at [max_int] is the root ["rt"], and any other
    prefix gets ["min"]/["max"] (["Lmin"], ["Rmax"]). *)

val cell : string -> string -> string
(** [cell label tag]: ["label.tag"] (e.g. ["X5.next"]); an empty label
    names the cell by its tag alone. *)
