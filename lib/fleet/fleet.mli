(** The sharded fleet driver: boot [n] machines across the paper's ARM
    configurations, run each a deterministic profile-shaped workload, and
    merge the per-machine meters into one aggregate — byte-identically,
    whatever the shard count or domain scheduling.

    Built on {!Shard.map}: machine [i]'s seed is
    [Shard.derive ~seed ~index:i] (position-independent, so machine [i]
    is the same machine whether the fleet has 16 members or 10,000), its
    configuration and profile are pure functions of [i], and the merge
    folds per-machine results in machine-index order.  The aggregate
    JSON contains no shard count and no wall-clock time, which is what
    makes [--shards 1] and [--shards 8] byte-identical. *)

module Scenario = Workloads.Scenario
module Profiles = Workloads.Profiles

(** {1 The configuration columns} *)

val columns : (string * Scenario.arm_column) list
(** The five ARM columns of Figure 2 under short CLI keys, in the
    paper's order: ["vm"], ["v8.3"], ["v8.3-vhe"], ["neve"],
    ["neve-vhe"]. *)

val column_keys : string list

val lookup_columns :
  string list -> ((string * Scenario.arm_column) list, string) Stdlib.result
(** Resolve CLI keys to columns, preserving order; [Error key] names the
    first unknown key. *)

(** {1 Per-machine work} *)

type spec = {
  sp_index : int;
  sp_seed : int64;             (** [Shard.derive ~seed ~index:sp_index] *)
  sp_config : string;          (** column key, round-robin by index *)
  sp_col : Scenario.arm_column;
  sp_profile : string;         (** profile name, fixed or mixed round-robin *)
}

val spec_of :
  seed:int -> profile:string ->
  configs:(string * Scenario.arm_column) list -> int -> spec
(** The spec of machine [index] — a pure function of the arguments, never
    of the fleet size or shard count.  [profile] is a workload name or
    ["mixed"] (round-robin over {!Profiles.all}).
    @raise Invalid_argument on an unknown profile name. *)

type result = {
  r_index : int;
  r_config : string;
  r_profile : string;
  r_seed : int64;
  r_ops : int;
  r_cycles : int;
  r_insns : int;
  r_traps : int;
  r_by_kind : (Cost.trap_kind * int) list;  (** workload-region trap mix *)
  r_trace_classes : (string * int) list;
      (** per-exit-class tracer counters ([] when untraced) *)
  r_trace_ok : bool;
      (** traced mode: tracer class-count sum = meter trap count *)
  r_digest : int64;  (** FNV-1a over the canonical result rendering *)
}

val run_spec : ?traced:bool -> ?ops:int -> spec -> result
(** Boot the machine and run [ops] (default 48) guest operations whose
    mix is weighted by the profile's exit-event counts, all randomness
    drawn from a PRNG seeded by [sp_seed].  With [traced], tracing is
    enabled on the calling domain for the workload region and the
    tracer's class counters are cross-checked against the meters. *)

(** {1 The fleet} *)

type per_config = {
  pc_name : string;
  pc_machines : int;
  pc_ops : int;
  pc_cycles : int;
  pc_insns : int;
  pc_traps : int;
}

type aggregate = {
  a_n : int;
  a_seed : int;
  a_profile : string;
  a_ops : int;
  a_cycles : int;
  a_insns : int;
  a_traps : int;
  a_by_config : per_config list;    (** selected-column order *)
  a_classes : (string * int) list;  (** merged per-class trap counters *)
  a_trace_ok : bool;                (** conjunction over machines *)
  a_digest : int64;                 (** index-ordered fold of digests *)
}

type t = { agg : aggregate; results : result array }

val run :
  ?shards:int ->
  ?traced:bool ->
  ?ops:int ->
  ?configs:(string * Scenario.arm_column) list ->
  n:int -> seed:int -> profile:string -> unit -> t
(** Run an [n]-machine fleet on [shards] domains (default 1) through
    {!Shard.map}.  The returned value — including
    {!json} of it — is a function of [(n, seed, profile, configs, ops,
    traced)] alone.
    @raise Invalid_argument on an unknown profile name. *)

val digest_hex : int64 -> string

val json : t -> Json.t
(** Canonical aggregate + per-config report.  Deliberately excludes the
    shard count, domain count and any wall-clock quantity. *)

val pp_summary : Format.formatter -> t -> unit
