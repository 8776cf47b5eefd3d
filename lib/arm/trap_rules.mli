(** The trap router — the architectural heart of the model.

    One pure function decides, for an instruction executed at a given
    exception level under a given configuration, whether it executes,
    redirects to another register, defers to the deferred access page,
    traps to EL2, or is UNDEFINED.  The four configurations the paper
    compares are all encoded here:

    - ARMv8.0: EL2 instructions at EL1 are UNDEFINED (the crash case of
      Section 2 that motivates paravirtualization);
    - ARMv8.1 VHE: E2H redirection at EL2 and the [_EL12]/[_EL02] aliases;
    - ARMv8.3 NV: EL2 instructions and eret at EL1 trap when HCR_EL2.NV
      is set; CurrentEL reads are disguised as EL2;
    - ARMv8.4 NV2 (NEVE): with VNCR_EL2.Enable, the same accesses become
      memory accesses or EL1-register accesses per Tables 3/4/5. *)

type action =
  | Execute
  | Execute_exposed of { feature : Expose.Policy.feature }
      (** OoH exposure: the access runs against the real hardware
          register trap-free because L0 granted the facility — same
          semantics as [Execute] plus per-feature attribution *)
  | Execute_redirected of Sysreg.access
      (** perform the access against a different register *)
  | Defer_to_memory of { addr : int64; reg : Sysreg.t }
      (** NV2: the access becomes a 64-bit load/store at [addr] *)
  | Read_disguised of int64
      (** NV: CurrentEL reads return EL2 while physically at EL1 *)
  | Trap_to_el2 of { entry : Exn.entry; kind : Cost.trap_kind }
      (** the EL2 exception the trap raises (no fault address), built
          with the action, so a cached action raises its trap without
          building or looking up an entry *)
  | Undef
      (** UNDEFINED at the current exception level *)

val vncr_enable : int64 -> bool
(** Bit 0 of a VNCR_EL2 value (Table 2): NEVE's master enable. *)

val vncr_baddr : int64 -> int64
(** Bits [52:12] of a VNCR_EL2 value (Table 2): the deferred access
    page's physical base. *)

(** Ablation mask: NEVE is three mechanisms (Section 6) — deferral,
    redirection and cached copies — each independently disableable to
    measure its contribution.  Hardware NEVE is {!nv2_full}. *)
type nv2_mask = {
  m_defer : bool;
  m_redirect : bool;
  m_cached : bool;
}

val nv2_full : nv2_mask
val nv2_off : nv2_mask

val vhe_el2_twin : Sysreg.t -> Sysreg.t option
(** VHE E2H redirection at EL2: the EL2 register an EL1 access instruction
    reaches (SCTLR_EL1 -> SCTLR_EL2, CNTV -> CNTHV, ...). *)

val el1_form_of_el2 : Sysreg.t -> Sysreg.t option
(** Inverse of {!vhe_el2_twin}: the EL1 instruction form a VHE hypervisor
    uses "wherever possible" (Section 5) to reach its own EL2 state. *)

val exposed_feature :
  Expose.Policy.t -> Sysreg.t -> Expose.Policy.feature option
(** The OoH grant (if any) that makes a direct virtual-EL2 access to
    this register trap-free.  [Dirty_log] has no sysreg surface; the
    read-only vGIC status registers are never exposed. *)

val route :
  ?mask:nv2_mask ->
  ?expose:Expose.Policy.t ->
  Features.t ->
  hcr:Hcr.view ->
  vncr:int64 ->
  el:Pstate.el ->
  Insn.t ->
  action
(** [route features ~hcr ~vncr ~el insn] is what the hardware does with
    [insn] executed at [el].  [vncr] is the raw VNCR_EL2 value; [mask]
    (default {!nv2_full}) selects which NEVE mechanisms the hardware
    implements; [expose] (default {!Expose.Policy.none}) is the OoH
    grant set L0 handed the guest hypervisor. *)

val pp_action : Format.formatter -> action -> unit
