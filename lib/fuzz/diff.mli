(** The differential driver and cross-mechanism oracle.

    One program runs under every ARM nested column of
    [Workloads.Scenario.fuzz_columns] — trap-and-emulate (ARMv8.3),
    NEVE, and their paravirtualized twins, for both guest-hypervisor
    designs.  Columns sharing a design (VHE / non-VHE) form a {e group}
    inside which the paper's transparency claim must hold exactly:
    identical final virtual EL1/EL2 register files, guest-visible
    memory, general registers, PSTATE/EL and exit class.  Trap counts
    may differ, but only in the paper-predicted direction — each
    paravirtualized twin produces exactly its hardware twin's count,
    NEVE never traps more than trap-and-emulate, and an OoH column never
    out-traps the base mechanism it extends.

    Each hardware column additionally has an {e OoH twin} (suffix
    [" (ooh)"]): the same mechanism with the timer and vGIC
    list-register facilities exposed trap-free
    ({!Expose.Policy.Timer} + {!Expose.Policy.Gic_lrs}).  Exposure may
    only remove exits, never change architectural state, so the twin is
    held to the group's full equivalence obligation. *)

type column = {
  col_name : string;
  col_config : Hyp.Config.t;
  col_expose : Expose.Policy.t;
      (** OoH grant the column's machine is created with;
          {!Expose.Policy.none} on the base columns *)
}

val ooh_grant : Expose.Policy.t
(** The OoH twins' grant set: every feature with a sysreg surface. *)

val columns : column list

val budget_for : int array -> int
(** Instruction budget for a program of this many words. *)

(** What the oracle sees of one column after a run. *)
type obs = {
  ob_error : string option;
      (** an escaped exception — compared like any other outcome *)
  ob_outcome : string;   (** interpreter exit class *)
  ob_pc : int64;         (** PC when the program stopped (pre-fold) *)
  ob_pstate : string;    (** PSTATE/EL when the program stopped *)
  ob_in_vel2 : bool;
  ob_regs : string;
      (** x0..x30 as 31 native-endian words ({!Arm.Cpu.gprs}) *)
  ob_vel2 : (string * int64) list;  (** non-reset virtual EL2 registers *)
  ob_vel1 : (string * int64) list;  (** non-reset virtual EL1 registers *)
  ob_mem : (int * int64) list;      (** non-zero scratch words *)
  ob_traps : int;
  ob_cycles : int;
      (** modeled cycles the column's meter accumulated; feeds the
          campaign's deterministic sim-cycle budget, never compared *)
  ob_ctx : Fault.Error.context option;
  ob_events : string list;
      (** rendered trace events for the whole column run; captured only
          when [traced] was set, empty otherwise *)
}

type runner =
  ?stop:(Arm.Cpu.t -> bool) -> Arm.Cpu.t -> entry:int64 -> max_insns:int ->
  Arm.Interp.outcome
(** An execution loop with {!Arm.Interp.run}'s contract. *)

val template : ?expose:Expose.Policy.t -> Hyp.Config.t -> Hyp.Machine.t
(** The column's template: a one-vCPU nested machine with the guest
    hypervisor started in virtual EL2, built on first use and kept per
    domain, one per (configuration, [expose]) pair.  It is returned
    rewound ({!Hyp.Machine.rewind}) to its just-started state, which no
    observation can tell from a freshly created and started machine,
    with its compiled world-switch plans warm.  {!run_column} and the
    first segment of {!run_column_snapshot} run on it and rewind it
    again when they finish, however they finish. *)

val run_column :
  ?run:runner ->
  ?traced:bool ->
  ?expose:Expose.Policy.t ->
  budget:int ->
  Hyp.Config.t ->
  int array ->
  obs
(** Run one encoded program under one configuration on the column's
    {!template} (a traced run boots a machine of its own, so its event
    stream starts at the boot): text binary-patched for
    paravirtualized columns, and a final (trapped) [eret] folding the
    execution mapping and the deferred page back into the virtual files
    so every mechanism's state is compared from the same vantage.
    [traced] (default false) records the column's event stream into
    [ob_events]; tracing is switched off again before returning, and the
    architectural observation is identical either way.  [run] (default
    {!Arm.Interp.run}) is the test suite's seam for comparing the
    interpreter against a reference loop. *)

val run_column_snapshot :
  ?run:runner ->
  ?expose:Expose.Policy.t ->
  budget:int ->
  at:int ->
  Hyp.Config.t ->
  int array ->
  obs
(** Like {!run_column}, but executed as two segments with a
    serialization boundary between them: run [at] instructions, save the
    machine through [Snap], restore into a fresh machine, resume there
    to the normal stopping condition, and observe the restored machine.
    A correct snapshot subsystem makes this observation — including the
    trap count — bit-identical to the uninterrupted run. *)

type divergence = {
  dv_group : string;
  dv_ref : string;     (** reference column *)
  dv_col : string;     (** disagreeing column *)
  dv_field : string;
  dv_detail : string;
  dv_context : Fault.Error.context option;
}

val divergence_to_string : divergence -> string
(** Rendered through [Fault.Error.to_string] with an
    [Oracle_divergence] kind, carrying the disagreeing column's machine
    context. *)

type result = {
  res_obs : (column * obs) list;
  res_divergences : divergence list;
}

val group_divergences : (column * obs) list -> divergence list
(** The cross-mechanism comparison of a program's observations: within
    each group, every column against the group's first, then the
    trap-count ordering.  What {!run_words} reports without
    [snap_oracle]. *)

val run_words : ?traced:bool -> ?snap_oracle:bool -> int array -> result
(** The full oracle: run under every column, compare architectural
    observations within each group, then check trap-count ordering
    (twin equality, NEVE <= trap-and-emulate).  [snap_oracle] (default
    false) additionally runs every column's
    snapshot-at-k/restore/resume twin ({!run_column_snapshot} at half
    the budget) and reports any difference from the uninterrupted run —
    trap counts included — as a divergence in group ["snapshot"]. *)

val diverges : ?snap_oracle:bool -> int array -> bool
(** [run_words] produced at least one divergence — the shrinker's
    predicate. *)
