(** Coarse-grained locking BST: the sequential external tree behind one
    global lock — the zero-concurrency anchor for the tree family, like
    {!Vbl_lists.Coarse_list} for lists. *)

module Make (M : Vbl_memops.Mem_intf.S) : Vbl_lists.Set_intf.S = struct
  module Seq = Seq_bst.Make (M)

  let name = "coarse-bst"

  type t = { lock : M.lock; inner : Seq.t }

  let create () =
    let s = M.site "bst" in
    { lock = M.make_lock s "lock"; inner = Seq.create () }

  let critical t f =
    M.lock t.lock;
    Fun.protect ~finally:(fun () -> M.unlock t.lock) f

  let insert t v = critical t (fun () -> Seq.insert t.inner v)
  let remove t v = critical t (fun () -> Seq.remove t.inner v)
  let contains t v = critical t (fun () -> Seq.contains t.inner v)
  let to_list t = Seq.to_list t.inner
  let size t = Seq.size t.inner
  let check_invariants t = Seq.check_invariants t.inner
  (* Reads serialize with writers too: Seq_bst is not built for
     concurrent traversal (a walk racing a remove's splice can miss live
     keys), and coarse is the zero-concurrency anchor, so fold/iter and
     the derived approx_size take the global lock like everything else. *)
  let fold f init t = critical t (fun () -> Seq.fold f init t.inner)
  let iter f t = critical t (fun () -> Seq.iter f t.inner)

  (* A single collection under the global lock is a true snapshot, so
     this is the one tree family member whose range_query is genuinely
     linearizable (Set_intf.Derive's double-collect certifies nothing). *)
  let range_query t lo hi = critical t (fun () -> Seq.range_query t.inner lo hi)
  let approx_size t = critical t (fun () -> Seq.approx_size t.inner)
end
