(** Lazy (Heller-style) external BST baseline: wait-free [contains],
    lock-then-validate updates that take their window locks {e before}
    deciding the outcome — the over-synchronising contrast to
    {!Vbl_bst}'s decide-without-locking discipline.  Step names and
    structure follow {!Seq_bst} (["R<key>"] routers, ["L<value>"]
    leaves). *)

module Make (M : Vbl_memops.Mem_intf.S) : Vbl_lists.Set_intf.S
