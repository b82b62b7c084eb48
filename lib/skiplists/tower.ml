(* Field tags of a tower's per-level successor cells, ["next0"] at the
   bottom: static strings, one per level a tower can reach, so naming a
   level costs the real backend an array load and nothing else. *)
let next_tags =
  [|
    "next0"; "next1"; "next2"; "next3"; "next4"; "next5"; "next6"; "next7";
    "next8"; "next9"; "next10"; "next11"; "next12"; "next13"; "next14"; "next15";
  |]

let () = assert (Array.length next_tags = Vbl_util.Level_gen.max_level)
