(** The concurrency-optimal partially-external BST of Aksenov, Gramoli,
    Kuznetsov, Malova and Ravi ("A Concurrency-Optimal Binary Search
    Tree"), built from the same ingredients the paper distils from the
    VBL list:

    - {b wait-free descents}: [contains] reads only child pointers and
      one [deleted] flag — no locks, no versions;
    - {b value checks before any locking}: inserting a present value or
      removing an absent one returns with zero synchronisation, and a
      remove of a logically deleted node likewise refuses without locks;
    - {b two locks per node}: a {e state} lock protecting the [deleted]
      flag and a {e tree} lock protecting the child pointers, so an
      insert reviving a routing node and an insert linking a fresh leaf
      under the same node never contend;
    - {b versioned windows}: a descent that falls off the tree at node
      [p] records [p.ver], and the subsequent link validates {e by
      version only} ([not p.unlinked && p.ver = s]) under [p]'s tree
      lock — the window re-validation that makes the schedule in which
      two inserts race for one empty slot rejectable without
      re-descending blindly;
    - {b deletion by state flag}: [remove] linearizes at a single
      [deleted := true] under the state lock.  Nodes are spliced out
      only when they have at most one child (the {e partially-external}
      compromise: a deleted node with two children stays as a routing
      node until a later restructuring finds it with fewer).  Physical
      unlinking is one opportunistic attempt under parent-then-victim
      tree locks in ancestor order; a failed validation just leaves the
      routing node behind.

    Range operations come from {!Vbl_lists.Set_intf.Derive}'s
    double-collect and carry its family-wide best-effort contract:
    presence here flips with a single [deleted]-flag write or a single
    child-pointer link, so each collected value was present at the
    moment its node was read, but two agreeing collections do not
    certify a snapshot — an ABA toggle (remove + re-insert between the
    collections) restores agreement — so [range_query] is not
    linearizable under concurrent updates. *)

module Make (M : Vbl_memops.Mem_intf.S) : Vbl_lists.Set_intf.S = struct
  let name = "vbl-bst"

  type node = {
    key : int;  (** immutable: routing never re-keys a node *)
    deleted : bool M.cell;  (** state flag — guarded by [slock] *)
    unlinked : bool M.cell;  (** spliced out — guarded by [tlock] *)
    left : node option M.cell;
    right : node option M.cell;
    ver : int M.cell;  (** bumped by every child write, under [tlock] *)
    slock : M.lock;
    tlock : M.lock;
  }

  type t = { root : node }
  (** The root is a sentinel with key [max_int]; every real key routes
      left of it, so the empty tree is [root.left = None] and the
      sentinel itself is never deleted or unlinked. *)

  (* The root sentinel is the node keyed [max_int] (named ["rt"]). *)
  let make_node k =
    let s = M.node "N" k in
    {
      key = k;
      deleted = M.make s "del" false;
      unlinked = M.make s "ulk" false;
      left = M.make s "left" None;
      right = M.make s "right" None;
      ver = M.make s "ver" 0;
      slock = M.make_lock s "slock";
      tlock = M.make_lock s "lock";
    }

  let create () = { root = make_node max_int }

  let check_key v =
    if v = min_int || v = max_int then
      invalid_arg "bst: key must be strictly between min_int and max_int"

  let child n v = if v < n.key then n.left else n.right

  (* Membership: wait-free, allocation-free descent. *)
  let[@hot] rec contains_walk n v =
    if v = n.key then not (M.get n.deleted)
    else
      match M.get (if v < n.key then n.left else n.right) with
      | Some c -> contains_walk c v
      | None -> false

  let contains t v =
    check_key v;
    contains_walk t.root v

  type where =
    | Found of node * node  (** parent, node with the key *)
    | Missing of node * int  (** node we fell off, its version *)

  (* Update descent.  Falling off at [n] records a seqlock-style window:
     read [n.ver], then re-check the slot is still empty — a later
     [n.ver = s] comparison under [n]'s tree lock then certifies the
     slot stayed empty from the re-check to the lock acquisition. *)
  let locate t v =
    let rec go p n =
      if v = n.key then Found (p, n)
      else
        let c = child n v in
        match M.get c with
        | Some m -> go n m
        | None -> (
            let s = M.get n.ver in
            match M.get c with Some m -> go n m | None -> Missing (n, s))
    in
    go t.root t.root

  let insert t v =
    check_key v;
    let rec attempt () =
      match locate t v with
      | Found (_, n) ->
          if not (M.get n.deleted) then false (* present: no lock ever taken *)
          else begin
            (* Revive the routing node under its state lock — deletion by
               state flag makes this a one-flag write. *)
            M.lock n.slock;
            if M.get n.unlinked then begin
              M.unlock n.slock;
              attempt ()
            end
            else if M.get n.deleted then begin
              M.set n.deleted false;
              M.unlock n.slock;
              true
            end
            else begin
              M.unlock n.slock;
              false
            end
          end
      | Missing (p, s) ->
          let x = make_node v in
          M.lock p.tlock;
          (* Version-only window validation: no pointer identity check is
             needed (or taken) — [ver] unchanged means no link or splice
             touched [p]'s children since the descent's empty re-check. *)
          if (not (M.get p.unlinked)) && M.get p.ver = s then begin
            M.set (child p v) (Some x);
            M.set p.ver (s + 1);
            M.unlock p.tlock;
            true
          end
          else begin
            M.unlock p.tlock;
            attempt ()
          end
    in
    attempt ()

  (* One opportunistic physical-unlink attempt after a logical remove.
     Lock order: victim state lock, then parent tree lock, then victim
     tree lock.  Tree locks are always taken in ancestor order (the
     ancestor relation between two live nodes never flips: splices only
     remove intermediate nodes and links only add leaves), and the one
     state lock is never waited for while a tree lock is held, so the
     order is global and deadlock-free.  The state lock serialises the
     splice against a concurrent revive-insert: without it, an insert
     could resurrect [n] between our deleted-check and the splice, and
     we would unlink a live key. *)
  let cleanup p n =
    M.lock n.slock;
    if M.get n.deleted && not (M.get n.unlinked) then begin
      M.lock p.tlock;
      M.lock n.tlock;
      let pc = child p n.key in
      let still_child =
        match M.get pc with Some m -> m == n | None -> false
      in
      if still_child && not (M.get p.unlinked) then begin
        match (M.get n.left, M.get n.right) with
        | Some _, Some _ -> () (* two children: stays as a routing node *)
        | (Some _ as only), None | None, (Some _ as only) | (None as only), None
          ->
            M.set n.unlinked true;
            M.set pc only;
            M.set p.ver (M.get p.ver + 1)
      end;
      M.unlock n.tlock;
      M.unlock p.tlock
    end;
    M.unlock n.slock

  let remove t v =
    check_key v;
    let rec attempt () =
      match locate t v with
      | Missing _ -> false (* absent: no lock ever taken *)
      | Found (p, n) ->
          if M.get n.deleted then false (* already absent: still lock-free *)
          else begin
            M.lock n.slock;
            if M.get n.unlinked then begin
              M.unlock n.slock;
              attempt ()
            end
            else if M.get n.deleted then begin
              M.unlock n.slock;
              false
            end
            else begin
              M.set n.deleted true;
              (* linearization point *)
              M.unlock n.slock;
              cleanup p n;
              true
            end
          end
    in
    attempt ()

  (* In-order over live keys; deleted routing nodes are skipped, the
     sentinel contributes nothing. *)
  (* In-order walk.  A concurrent splice can hand a subtree the walk has
     already passed back to a node still ahead of it, so a key counts only
     if it exceeds the last one reported: the fold stays strictly
     ascending, and a skipped key is one the walk had already passed. *)
  let fold f init t =
    let last = ref min_int in
    let rec go acc n =
      let acc = match M.get n.left with Some c -> go acc c | None -> acc in
      let acc =
        if n.key <> max_int && (not (M.get n.deleted)) && n.key > !last then begin
          last := n.key;
          f acc n.key
        end
        else acc
      in
      match M.get n.right with Some c -> go acc c | None -> acc
    in
    go init t.root

  include Vbl_lists.Set_intf.Derive (struct
    type nonrec t = t

    let fold = fold
  end)

  let check_invariants t =
    let exception Bad of string in
    let check_node n =
      if M.get n.unlinked then
        raise (Bad (Printf.sprintf "reachable unlinked node %d" n.key));
      if M.lock_held n.slock then
        raise (Bad (Printf.sprintf "node %d state lock left held" n.key));
      if M.lock_held n.tlock then
        raise (Bad (Printf.sprintf "node %d tree lock left held" n.key))
    in
    let rec go n lo hi depth =
      if depth > 1_000_000 then raise (Bad "descent did not terminate (cycle?)");
      if not (lo < n.key && n.key < hi) then
        raise (Bad (Printf.sprintf "node %d outside (%d, %d)" n.key lo hi));
      check_node n;
      (match M.get n.left with Some c -> go c lo n.key (depth + 1) | None -> ());
      match M.get n.right with Some c -> go c n.key hi (depth + 1) | None -> ()
    in
    if t.root.key <> max_int then Error "root is not the max_int sentinel"
    else
      try
        if M.get t.root.deleted then raise (Bad "root sentinel marked deleted");
        check_node t.root;
        (match M.get t.root.right with
        | Some _ -> raise (Bad "root sentinel has a right child")
        | None -> ());
        (match M.get t.root.left with
        | Some c -> go c min_int max_int 0
        | None -> ());
        Ok ()
      with Bad msg -> Error msg
end
