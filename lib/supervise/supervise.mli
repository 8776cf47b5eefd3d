(** Deterministic watchdog supervision and self-healing recovery.

    A supervisor wraps a running {!Hyp.Machine} with a sim-cycle
    watchdog: the driving loop calls {!poll} between operation batches,
    each poll sweeps every vCPU (charging [Cost.watchdog_poll] per CPU,
    so supervision itself is visible in the meters) and compares retire
    counters, UNDEF-injection counters and the invariant-violation count
    against the previous sweep.  A vCPU that retires nothing for
    [no_retire_window] consecutive polls, injects UNDEFs faster than
    [panic_threshold] per poll, or trips the invariant checker is sick;
    the configured {!policy} then runs immediately.

    Everything is driven by simulated cycles and meter deltas — no wall
    clock, no randomness — so the full firing-and-recovery history is
    byte-reproducible for a fixed seed and op sequence.

    [Restart_from_snapshot] rebuilds the whole machine from the baseline
    snapshot taken at {!create} (rollback-recovery in the crash-only
    style); the supervisor hands out the replacement via {!machine}, and
    clears any hang — the restart is what un-wedges a hung vCPU.
    [Kill_l2_keep_l1] degrades gracefully: the nested VM dies, the guest
    hypervisor keeps running ({!Hyp.Machine.kill_l2}); on single-VM
    scenarios it falls back to the restart policy (there is no L2 to
    kill).  [Escalate] records the event for an operator and changes
    nothing. *)

type policy = Restart_from_snapshot | Kill_l2_keep_l1 | Escalate

val policy_name : policy -> string
val policy_of_name : string -> policy option

type symptom =
  | No_retire of int  (** consecutive polls with zero retired work *)
  | Panic_loop of int  (** UNDEF injections since the previous poll *)
  | Invariant of int  (** new invariant violations since the previous poll *)

val symptom_name : symptom -> string

type event = {
  e_seq : int;  (** firing order, from 0 *)
  e_cpu : int;
  e_symptom : symptom;
  e_policy : policy;  (** policy actually applied (after fallback) *)
  e_detect_cycles : int;
      (** machine total cycles at detection, on the pre-recovery
          timeline *)
  e_recover_cost : int;  (** cycles the recovery action charged *)
  e_recovered : bool;  (** false for [Escalate] *)
}

val event_line : event -> string
(** One-line stable rendering, for golden files and determinism
    digests. *)

type config = {
  no_retire_window : int;  (** default 3 *)
  panic_threshold : int;  (** default 8 *)
  policy : policy;
}

val default_config : config
(** [Restart_from_snapshot], window 3, threshold 8. *)

type t

val create : ?config:config -> Hyp.Machine.t -> t
(** Take the baseline snapshot ({!Snap.to_string}) and start watching.
    Create the supervisor when the machine is healthy — the baseline is
    what [Restart_from_snapshot] recovers to. *)

val machine : t -> Hyp.Machine.t
(** The machine currently supervised.  After a restart recovery this is
    a {e different} object than the one passed to {!create}; drive this
    one. *)

val poll : t -> event list
(** One watchdog sweep over all vCPUs; runs recovery for every sick one
    and returns the events fired by this poll (possibly empty).  At most
    one restart recovery runs per poll — a rebuilt machine makes the
    remaining symptoms stale. *)

val events : t -> event list
(** Every event fired so far, oldest first. *)
