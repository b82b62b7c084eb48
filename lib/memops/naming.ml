(** Step-name conventions of the instrumented backends.

    The paper's schedule figures write [h] for the head sentinel, [X_i]
    for the node storing value [i], and [new(X_i)] for node creation; the
    BST schedules write [N_i] for a node and [rt] for the root sentinel.
    Algorithms never build these strings: they pass a constant prefix and
    a key ({!Mem_intf.S.node}) or a constant label ({!Mem_intf.S.site}),
    plus a constant field tag per cell, and the instrumented backends
    compose the names here — so schedule scripts (lib/sched) can refer to
    implementation steps in the paper's own vocabulary. *)

let node prefix key =
  if key = min_int then if prefix = "X" then "h" else prefix ^ "min"
  else if key = max_int then
    if prefix = "X" then "t" else if prefix = "N" then "rt" else prefix ^ "max"
  else prefix ^ string_of_int key

let cell label tag = if label = "" then tag else label ^ "." ^ tag
