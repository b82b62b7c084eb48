(** The four named workloads.  All are closed loops: a client issues its
    next call only when the previous one returned.  Keys are uniform and
    the set is prepopulated with each key present with probability 1/2,
    all drawn from the [--seed] generator ({!Gen}). *)

(** A set under test, with the shard layout where it has one. *)
module type SET = sig
  include Vbl_lists.Set_intf.S

  val shard_sizes : t -> int array
  (** Per-shard sizes; [[||]] for an unsharded set. *)
end

module Unsharded (S : Vbl_lists.Set_intf.S) : SET = struct
  include S

  let shard_sizes _ = [||]
end

type real = {
  impl : (module SET);  (** on a real backend, driven by 2 client domains *)
  clients : Gen.mix array;  (** one mix per client domain *)
  instr : (module Vbl_lists.Set_intf.S);
      (** the same algorithm on an instrumented backend, for the exact
          access counts of {!Instr_count} *)
  instr_label : string;
  routed : bool;  (** calls go through {!Vbl_shard} routing *)
}

type sim = {
  sim_impl : (module Vbl_lists.Set_intf.S);  (** instrumented *)
  threads : int;
  mix : Gen.mix;
  horizon : float;  (** simulated cycles per episode *)
}

type kind = Real of real | Sim of sim
type t = { name : string; key_range : int; kind : kind }

let read_mostly =
  let mix = Gen.Point { key_range = 2000; update_pct = 20 } in
  {
    name = "read-mostly";
    key_range = 2000;
    kind =
      Real
        {
          impl = (module Unsharded (Vbl_lists.Registry.Vbl));
          clients = [| mix; mix |];
          instr = (module Vbl_sched.Drive.Vbl_i);
          instr_label = "vbl";
          routed = false;
        };
  }

(* The 8-shard reclaiming frontend; its instrumented counterpart is the
   unsharded vbl-reclaim, the closest thing the instrumented registries
   have. *)
let churn =
  let mix = Gen.Point { key_range = 64; update_pct = 100 } in
  {
    name = "churn";
    key_range = 64;
    kind =
      Real
        {
          impl = (module Vbl_shard.Registry.Vbl_sharded_8_reclaim);
          clients = [| mix; mix |];
          instr = (module Vbl_sched.Drive.Vbl_reclaim_i);
          instr_label = "vbl-reclaim";
          routed = true;
        };
  }

(* Client 0 scans 32-key windows; client 1 updates beside it. *)
let range_scan =
  {
    name = "range-scan";
    key_range = 2000;
    kind =
      Real
        {
          impl = (module Unsharded (Vbl_skiplists.Registry.Vbl_skip));
          clients =
            [| Gen.Range { key_range = 2000; width = 32 }; Gen.Point { key_range = 2000; update_pct = 100 } |];
          instr = (module Vbl_skiplists.Registry.Vbl_skip_i);
          instr_label = "vbl-skiplist";
          routed = false;
        };
  }

(* The right-most point of the paper's Figure 1 on the simulated
   multicore, run by one host thread. *)
let sim_fig1 =
  {
    name = "sim-fig1";
    key_range = 50;
    kind =
      Sim
        {
          sim_impl = (module Vbl_sched.Drive.Vbl_i);
          threads = 72;
          mix = Gen.Point { key_range = 50; update_pct = 20 };
          horizon = 50_000.;
        };
  }

let all = [ read_mostly; churn; range_scan; sim_fig1 ]
let find name = List.find_opt (fun w -> w.name = name) all
