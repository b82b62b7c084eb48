(** Workload inputs.  This is the only module that sees the seed: the
    program under test receives keys, never the seed or a stream.

    Each client (or simulated thread) [c] draws from its own stream
    [Rng.stream ~seed ~index:(c + 1)]; index 0 draws the prepopulation.
    Streams are pure functions of [(seed, index)], so one seed always
    gives the same inputs whatever the timing of the run. *)

module Rng = Vbl_util.Rng

(* An operation is one immediate int, [key lsl 2 lor kind], so the client
   loops hand keys to the set without allocating. *)
let insert = 0
let remove = 1
let contains = 2
let range = 3
let[@inline] kind op = op land 3
let[@inline] key op = op lsr 2

type mix =
  | Point of { key_range : int; update_pct : int }
      (** uniform keys in [\[1, key_range\]]; [update_pct]% updates split
          evenly between insert and remove, the rest contains *)
  | Range of { key_range : int; width : int }
      (** [range_query lo (lo + width - 1)] with [lo] uniform in
          [\[1, key_range\]] *)

let next rng = function
  | Point { key_range; update_pct } ->
      let k = 1 + Rng.int rng key_range in
      let roll = Rng.int rng 100 in
      (k lsl 2) lor (if roll < update_pct then roll land 1 else contains)
  | Range { key_range; _ } -> ((1 + Rng.int rng key_range) lsl 2) lor range

type source = { seed : int64 }

let source seed = { seed = Int64.of_int seed }
let stream src ~client = Rng.stream ~seed:src.seed ~index:(client + 1)

let prepopulation src ~key_range =
  let rng = Rng.stream ~seed:src.seed ~index:0 in
  let keys = Array.init key_range (fun i -> i + 1) in
  Rng.shuffle rng keys;
  (* Each key present with probability 1/2, inserted in shuffled order. *)
  Array.of_list (List.filter (fun _ -> Rng.bool rng) (Array.to_list keys))

let prefix src ~client mix n =
  let rng = stream src ~client in
  Array.init n (fun _ -> next rng mix)

(** Client [c]'s calls, generated before the run: the first [2^20] draws
    of its stream, which the client replays cyclically.  Generating on
    the fly would put the generator in the measured loop, and
    [Vbl_util.Rng] allocates boxed [int64]s (tens of minor words a draw):
    with two domains that means hundreds of stop-the-world minor
    collections a second, which the set would be charged for.  The buffer
    lives outside the OCaml heap. *)
type buffer = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let buffer_len = 1 lsl 20

let buffer src ~client mix : buffer =
  let rng = stream src ~client in
  let b = Bigarray.Array1.create Bigarray.int Bigarray.c_layout buffer_len in
  for i = 0 to buffer_len - 1 do
    Bigarray.Array1.unsafe_set b i (next rng mix)
  done;
  b

let[@inline] call (b : buffer) n = Bigarray.Array1.unsafe_get b (n land (buffer_len - 1))
