(** Cell tags shared by the skip-list towers. *)

val next_tags : string array
(** [next_tags.(l)] tags a tower's level-[l] successor cell (["next<l>"]);
    one entry per level up to {!Vbl_util.Level_gen.max_level}. *)
