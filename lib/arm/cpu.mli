(** The simulated CPU: machine state plus the instruction-execution engine.

    Execution is synchronous: when an instruction traps to EL2, the
    hardware exception entry is performed and the installed EL2 handler
    (the host hypervisor) runs immediately; it finishes by executing eret
    at EL2, which restores the interrupted context, and the original
    {!exec} call returns.  This mirrors trap-and-emulate without a
    scheduler.

    On every EL2 exception entry the general registers are snapshotted
    (as real KVM saves guest GPRs); handler code works on the snapshot via
    {!get_trapped_reg}/{!set_trapped_reg} and the snapshot is restored by
    the handler's eret — so hypervisor code can use registers freely
    without corrupting the guest. *)

exception Undefined_instruction of Insn.t * Pstate.el
(** The ARMv8.0 crash case: an EL2 instruction executed deprivileged with
    no nested-virtualization support (Section 2). *)

exception No_el2_handler of Exn.entry

type t = {
  mutable pc : int64;
  regs : int64 array;  (** x0..x30 *)
  mutable pstate : Pstate.t;
  sysregs : Sysreg_file.t;
  mem : Memory.t;
  mutable features : Features.t;
  meter : Cost.meter;
  mutable el2_handler : handler option;
  mutable el1_handler : handler option;
  mutable el1_vectors : bool;
      (** an UNDEFINED instruction below EL2 takes the EL1 vector even
          with no simulated EL1 handler (set by {!Machine.create}; bare
          CPUs default to raising {!Undefined_instruction}) *)
  mutable saved_regs : int64 array list;
  mutable nv2_mask : Trap_rules.nv2_mask;
      (** simulator-only ablation knob: which NEVE mechanisms this
          "hardware" implements *)
  mutable expose : Expose.Policy.t;
      (** OoH per-feature grant set L0 handed this guest hypervisor
          (set by {!Machine.create}; immutable for the VM's life) *)
  mutable hcr_raw : int64;
      (** raw HCR_EL2 value behind {!field-hcr_cached}; the decoded view is
          refreshed only when this changes *)
  mutable hcr_cached : Hcr.view;
  xlate : Xlate.t;
      (** per-CPU superblock translation + decode cache (each machine
          gets its own; the interpreter executes through it) *)
  trap_entries : Exn.entry Memo.t;
      (** memo of EL2 trap entries keyed by (EC, ISS), so a repeated
          trap reuses its immutable entry record *)
  mutable labels : (Insn.t, Cost.trap_kind * string) Hashtbl.t option;
      (** the trap log's entry for each trapping instruction, shared
          between the traps of one site; built by the first logged trap *)
}

and handler = t -> Exn.entry -> unit

val create :
  ?features:Features.t ->
  ?table:Cost.table ->
  ?mem:Memory.t ->
  ?meter:Cost.meter ->
  unit ->
  t
(** A CPU at EL2 with reset state.  Pass [mem] to share physical memory
    between CPUs of one machine. *)

val get_reg : t -> int -> int64
(** Register 31 is XZR and reads zero.
    @raise Invalid_argument outside 0..31. *)

val set_reg : t -> int -> int64 -> unit
(** Writes to register 31 (XZR) are discarded.
    @raise Invalid_argument outside 0..31. *)

val hcr_view : t -> Hcr.view
val vncr_value : t -> int64
val table : t -> Cost.table

val peek_sysreg : t -> Sysreg.t -> int64
(** Raw register-file read for tests and hardware-internal logic; not an
    instruction, costs nothing. *)

val poke_sysreg : t -> Sysreg.t -> int64 -> unit

val exception_entry : t -> Exn.entry -> unit
(** Hardware exception entry: sets ESR/ELR/SPSR (and FAR/HPFAR for
    aborts), switches to the target EL, snapshots the GPRs (EL2 targets),
    charges the entry cost and invokes the installed handler. *)

val do_eret : t -> unit
(** Architectural eret at the current exception level: restores PSTATE
    and PC from SPSR/ELR, pops the GPR snapshot (at EL2), charges the
    return cost. *)

val read_sysreg_hw : t -> Sysreg.t -> int64
(** Register read with hardware side effects (CurrentEL synthesis,
    CNTVCT from the cycle count offset by CNTVOFF). *)

val write_sysreg_hw : t -> Sysreg.t -> int64 -> unit

val advance_pc : t -> unit

val scratch_reg : int
(** x9: used for normalized immediate MSRs and the {!mrs}/{!msr}
    helpers. *)

val exec : t -> Insn.t -> unit
(** Execute one instruction: route it ({!Trap_rules.route}), then run,
    redirect, defer to memory, disguise, trap to EL2, or raise
    {!Undefined_instruction}. *)

val exec_local : t -> Insn.t -> unit
(** Execute with no routing, as if the router said [Execute].  Only
    sound for instructions the router maps to [Execute] unconditionally
    (the superblock executor's [Plain] class). *)

val exec_with_action : t -> Insn.t -> Trap_rules.action -> unit
(** Execute under a pre-computed route action — the superblock
    executor's replay path for cached [Routed] ops.  The action must
    equal what {!Trap_rules.route} would return for the current state;
    immediate-MSR normalization is NOT performed here, so callers must
    route [Msr (_, Imm _)] with a non-[Execute] action through {!exec}
    instead. *)

val exec_seq : t -> Insn.t list -> unit

val deliver_irq : t -> bool
(** A physical interrupt arrives: routed to EL2 when executing below EL2
    with HCR_EL2.IMO set.  Returns whether it was delivered. *)

val pend_vserror : t -> syndrome:int64 -> unit
(** FEAT_RAS: pend a virtual SError — set HCR_EL2.VSE and program
    VSESR_EL2.  Purely architectural state, so a snapshot taken before
    delivery carries the pending error. *)

val vserror_pending : t -> bool

val deliver_vserror : t -> bool
(** Take a pending virtual SError at EL1 (EC 0x2f, ISS from VSESR_EL2,
    syndrome latched into VDISR_EL2).  Only fires below EL2 with
    HCR_EL2.VSE set; returns whether it was delivered. *)

val mrs : t -> Sysreg.access -> int64
(** Execute a real MRS (costed and routed, as by {!exec}) into
    {!scratch_reg} and return the value read.  At EL2, where the router
    would answer [Execute], the access runs directly with no
    instruction built and no routing. *)

val msr : t -> Sysreg.access -> int64 -> unit
(** Execute an immediate MSR, as by {!exec}; same EL2 path as {!mrs}. *)

val msr_from : t -> Sysreg.access -> Sysreg_file.t -> Sysreg.t -> unit
(** [msr_from t access src r] is [msr t access (Sysreg_file.read src r)]
    (loading a register from a virtual register file), without boxing
    the value on the EL2 path. *)

val get_trapped_reg : t -> int -> int64
(** Guest registers as they were at the current trap (and as the
    handler's eret will restore them). *)

val set_trapped_reg : t -> int -> int64 -> unit

val pp_state : Format.formatter -> t -> unit
