(** In-memory spans for the traced run.

    Each client owns one recorder; nothing is shared while the run is
    measured.  A span is [id, name, start, end, parent, op]: [parent] is
    the id of the span that caused it ([-1] at a root) and [op] the id of
    the operation all spans of one sampled call share.  Ids carry the
    recorder's serial number in their high bits, so they are unique
    across recorders.  Spans are written out only when the run ends. *)

type name = Op | Gen | Shard_route | Set_insert | Set_remove | Set_contains | Range_query | Range_fold

let label = function
  | Op -> "op"
  | Gen -> "gen"
  | Shard_route -> "shard.route"
  | Set_insert -> "set.insert"
  | Set_remove -> "set.remove"
  | Set_contains -> "set.contains"
  | Range_query -> "range.query"
  | Range_fold -> "range.fold"

let set_call kind =
  if kind = Gen.insert then Set_insert else if kind = Gen.remove then Set_remove else Set_contains

type span = { id : int; name : name; start : int; stop : int; parent : int; op : int }
type t = { serial : int; mutable spans : span list; mutable count : int }

let recorders = Atomic.make 0
let create () = { serial = Atomic.fetch_and_add recorders 1; spans = []; count = 0 }
let op_id t n = (t.serial lsl 40) lor n

let add t ?(parent = -1) ~op name ~start ~stop =
  let id = (t.serial lsl 40) lor t.count in
  t.count <- t.count + 1;
  t.spans <- { id; name; start; stop; parent; op } :: t.spans;
  id

let all ts = List.concat_map (fun t -> List.rev t.spans) ts
let duration s = s.stop - s.start

(** Durations of the spans called [name], ascending. *)
let durations name spans =
  let a = Array.of_list (List.filter_map (fun s -> if s.name = name then Some (float_of_int (duration s)) else None) spans) in
  Array.sort compare a;
  a

(** A span's self time: its duration minus the part its children cover
    (children of one span never overlap: a client is sequential). *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.replace child s.parent (duration s + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map (fun s -> (s, duration s - Option.value ~default:0 (Hashtbl.find_opt child s.id))) spans

let write path spans =
  let oc = open_out path in
  List.iter
    (fun (s, self) ->
      Printf.fprintf oc "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d,\"parent\":%d,\"op\":%d}\n"
        s.id (label s.name) s.start s.stop self s.parent s.op)
    (self_times spans);
  close_out oc
