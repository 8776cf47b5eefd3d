(** The recovery campaign behind [neve_sim recover].

    Three fault families — physical SErrors (contained by L0 and
    re-injected virtually through HCR_EL2.VSE/VSESR_EL2), wedged vCPUs
    (detected by the {!Supervise} watchdog and recovered under the
    configured policy) and mid-migration transfer-stream failures
    (rolled back and retried by {!Snap.Migrate.resilient}) — injected at
    fixed seeds into each of the five ARM configurations.

    Every scenario runs traced and checks the tracer's per-class trap
    sums against the meters across the whole fault-and-recovery cycle,
    counting the traps that restart recoveries and migration rollbacks
    rewind.  The report is a function of the seed alone; {!digest}
    fingerprints it for byte-identity checks across reruns. *)

type scenario_report = {
  sr_config : string;  (** ARM configuration name *)
  sr_fault : string;  (** ["serror"], ["hang"] or ["mig-stream"] *)
  sr_mechanism : string;
      (** how it recovered: ["contain+vinject"], the applied watchdog
          policy, or ["rollback-retry"] *)
  sr_recovered : bool;
  sr_detect_cycles : int;  (** injection to detection/delivery *)
  sr_recover_cycles : int;  (** the recovery action's charged cost *)
  sr_trace_ok : bool;  (** trace class sums matched the meters *)
  sr_detail : string;
}

type report = {
  rc_seed : int;
  rc_policy : Supervise.policy;  (** watchdog policy for hang scenarios *)
  rc_scenarios : scenario_report list;
}

val recovered_all : report -> bool
val trace_ok : report -> bool

val scenarios : (string * Hyp.Config.t * Hyp.Host_hyp.scenario) list
(** The five ARM configurations: plain VM plus the four nested
    mechanisms. *)

val run :
  ?seed:int -> ?policy:Supervise.policy -> ?shards:int -> unit -> report
(** Run all [5 configs x 3 fault families] scenarios.  Deterministic:
    same [seed] and [policy], byte-identical report — including under
    [shards] > 1, which fans the 15 flattened scenarios out over that
    many domains with {!Shard.map} (each body traces into its own
    domain's sink and stands down with [Trace.detach]). *)

val pp_report : Format.formatter -> report -> unit

val digest : report -> string
(** Hex digest of the rendered report, for determinism checks. *)
