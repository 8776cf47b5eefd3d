(** Pre-copy live migration between two simulated hosts.

    Stage-2 dirty logging ({!Mmu.Dirty}) drives iterative copy rounds
    while the guest runs; when the residual dirty set reaches
    [threshold] (or [max_rounds] is exhausted) the guest stops, the
    remainder plus machine state is transferred — the simulated downtime
    — and the destination is materialized with {!Image.restore}.  All
    migration costs are charged to the source before the final snapshot,
    so a successful migration satisfies [Image.diff src dst = None].

    When the source machine's OoH grant set includes
    {!Expose.Policy.Dirty_log}, first-write-per-page captures run
    trap-free: the hardware dirty bit replaces the stage-2
    write-protection fault, so no trap is recorded and no exit cost is
    charged ({!Cost.record_exposed} keeps the attribution).  Every other
    aspect of the algorithm — rounds, page streams, the byte-identity
    guarantee — is unchanged, which is what makes the per-mechanism
    traps-per-round comparison meaningful. *)

type report = {
  r_mech : string;
      (** virtualization mechanism label ({!Hyp.Config.name}),
          ["+ooh(dirty-log)"]-suffixed when captures were exposed *)
  r_rounds : int;  (** pre-copy rounds run (round 0 is the full copy) *)
  r_dirty_per_round : int list;  (** pages copied per round, oldest first *)
  r_pages_total : int;  (** distinct backed pages at the stop point *)
  r_pages_copied : int;  (** page transfers, including re-copies *)
  r_write_faults : int;
      (** first-write-per-page captures, trapped and exposed together *)
  r_trapped_captures : int;
      (** captures that cost a full write-protection-fault round trip *)
  r_exposed_captures : int;
      (** trap-free captures under the [Dirty_log] grant *)
  r_precopy_traps : int;  (** traps taken while the guest still ran *)
  r_final_dirty : int;  (** residual pages moved during downtime *)
  r_converged : bool;  (** dirty set reached the threshold in budget *)
  r_precopy_cycles : int;  (** elapsed cycles while the guest still ran *)
  r_downtime_cycles : int;  (** stop-and-copy: residual pages + state *)
}

val per_round : report -> int -> float
(** [per_round r total] is [total] averaged over the pre-copy rounds. *)

val pp_report : Format.formatter -> report -> unit

val run :
  ?threshold:int ->
  ?max_rounds:int ->
  workload:(Hyp.Machine.t -> round:int -> unit) ->
  Hyp.Machine.t ->
  Hyp.Machine.t * report
(** [run ~workload src] migrates [src] and returns the destination plus
    the report.  [workload src ~round] models the guest executing
    concurrently with round [round]'s copy stream; its stores feed the
    dirty log.  [threshold] (default 8) is the stop-and-copy trigger;
    [max_rounds] (default 16) bounds non-converging guests.
    @raise Fault.Error.Sim_fault if the staged copy stream disagrees
    with the destination's memory (a dirty-tracker miss). *)

(** {1 Self-healing migration} *)

type resilient_report = {
  rr_attempts : int;  (** attempts run, including the successful one *)
  rr_aborts : (int * string) list;
      (** (attempt, failed stage) per abort, oldest first; stages are
          ["page-stream"] and ["state-copy"] *)
  rr_backoffs : int list;
      (** exponential backoff waited before each retry, in cycles of
          orchestrator time (never charged to the rolled-back source) *)
  rr_rollbacks_clean : bool;
      (** every abort rolled the source back byte-identically to its
          pre-attempt snapshot *)
  rr_rewound_traps : int;
      (** traps recorded by aborted attempts and undone by their
          rollbacks; add to the final meters when balancing them against
          trace class sums *)
  rr_report : report option;
      (** the successful attempt's report; [None] if retries ran out *)
}

val pp_resilient_report : Format.formatter -> resilient_report -> unit

val resilient :
  ?threshold:int ->
  ?max_rounds:int ->
  ?max_retries:int ->
  ?fail_rate:int ->
  ?fail_seed:int ->
  workload:(Hyp.Machine.t -> round:int -> unit) ->
  Hyp.Machine.t ->
  Hyp.Machine.t * Hyp.Machine.t option * resilient_report
(** Migration over a fault-injectable transfer stream: each page batch
    and the final state copy fails with probability [fail_rate]%
    (default 0), drawn from a self-contained PRNG seeded with
    [fail_seed] — the whole failure/abort/retry history is
    byte-deterministic per seed.  An aborted attempt discards the
    staged destination, rolls the source back to its pre-attempt
    snapshot (verified byte-identical), backs off exponentially from
    {!Cost.table.mig_retry_backoff} and retries up to [max_retries]
    (default 4) times.  Returns the (possibly restored) source — the
    caller must continue with it, not the machine passed in — the
    destination when an attempt succeeded, and the retry history. *)
