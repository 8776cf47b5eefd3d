(** Chaos harness: the paper scenarios run under randomized fault plans.

    Each configuration of the trap-mechanism matrix gets a deterministic
    fault plan derived from the run seed and its name; the acceptance
    property is that every fault is either recovered architecturally
    (injected UNDEF, reflected fault, re-delivered interrupt) or
    reported as a typed invariant violation — never an anonymous OCaml
    exception.  Same seed, same report, byte for byte. *)

type config_report = {
  cr_name : string;
  cr_seed : int;
  cr_ops : int;
  cr_traps : int;
  cr_injected : (Fault.Plan.kind * int) list;
  cr_undefs : int;           (** UNDEFs injected into guests *)
  cr_sim_faults : int;       (** typed [Sim_fault] aborts *)
  cr_violations : int;
  cr_violation_sample : string list;
  cr_crashes : string list;  (** anonymous exceptions — must stay empty *)
  cr_timed_out : bool;  (** the sim-cycle budget expired before the trap budget *)
}

type report = {
  r_seed : int;
  r_faults : int;
  r_trap_budget : int;
  r_configs : config_report list;
}

val crashes : report -> string list

val timed_out : report -> bool
(** Any configuration hit the sim-cycle budget. *)

val scenarios : (string * Hyp.Config.t * Hyp.Host_hyp.scenario) list
(** The matrix: plain VM, the four nested hardware configurations, the
    paravirtualized twins, and a GICv2 machine. *)

val run :
  ?seed:int -> ?faults:int -> ?traps:int -> ?max_cycles:int ->
  ?shards:int -> unit -> report
(** Run every scenario under a fault plan of [faults] events scheduled
    within a budget of [traps] traps per configuration.  [max_cycles]
    (default 0 = unlimited) additionally bounds each configuration to a
    deterministic sim-cycle budget; a configuration stopped by it is
    marked [cr_timed_out].  [shards] (default 1) fans the configuration
    matrix out over that many domains with {!Shard.map} —
    per-configuration seeds are derived from the configuration names,
    so the report is byte-identical to the serial one. *)

val pp_report : Format.formatter -> report -> unit
