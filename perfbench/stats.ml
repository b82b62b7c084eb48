(** Growable sample buffers and order statistics. *)

module A = Bigarray.Array1

(* Outside the OCaml heap, so the samples do not count in [heap_mb]. *)
type buf = { mutable a : (int, Bigarray.int_elt, Bigarray.c_layout) A.t; mutable n : int }

let buf () = { a = A.create Bigarray.int Bigarray.c_layout 4096; n = 0 }

let push b x =
  if b.n = A.dim b.a then begin
    let a = A.create Bigarray.int Bigarray.c_layout (2 * b.n) in
    A.blit b.a (A.sub a 0 b.n);
    b.a <- a
  end;
  A.unsafe_set b.a b.n x;
  b.n <- b.n + 1

let sorted bufs =
  let a = Array.concat (List.map (fun b -> Array.init b.n (A.get b.a)) bufs) in
  Array.sort compare a;
  Array.map float_of_int a

(** Nearest-rank percentile of an ascending array; [nan] when empty. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  percentile a 0.5

(** [f] run [reps] times; the median of its wall times in ns. *)
let time_median ~reps f =
  median
    (List.init reps (fun _ ->
         let t0 = Vbl_obs.Contention.now_ns () in
         f ();
         float_of_int (Vbl_obs.Contention.now_ns () - t0)))

let ratio a b = if b = 0. then 0. else a /. b
