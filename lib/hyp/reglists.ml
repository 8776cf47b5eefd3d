(* The world-switch register lists.

   These mirror KVM/ARM's sysreg save/restore sets (arch/arm64/kvm/hyp/
   sysreg-sr.c in the Linux 4.10 era).  The *lengths* of these lists are
   what drives exit multiplication on ARMv8.3: each element is a system
   register access the guest hypervisor performs per exit, and each access
   traps unless NEVE removes the trap.  Keeping them as data makes the
   ablation "how do trap counts scale with context size?" a one-line
   change. *)

module Sysreg = Arm.Sysreg

(* EL1 context saved/restored when switching between a VM and the host on a
   non-VHE hypervisor, and between two VMs on any hypervisor: the
   __sysreg_save_state set. *)
let el1_state : Sysreg.t list =
  [
    Sysreg.CSSELR_EL1;
    Sysreg.SCTLR_EL1;
    Sysreg.ACTLR_EL1;
    Sysreg.CPACR_EL1;
    Sysreg.TTBR0_EL1;
    Sysreg.TTBR1_EL1;
    Sysreg.TCR_EL1;
    Sysreg.ESR_EL1;
    Sysreg.AFSR0_EL1;
    Sysreg.AFSR1_EL1;
    Sysreg.FAR_EL1;
    Sysreg.MAIR_EL1;
    Sysreg.VBAR_EL1;
    Sysreg.CONTEXTIDR_EL1;
    Sysreg.AMAIR_EL1;
    Sysreg.CNTKCTL_EL1;
    Sysreg.PAR_EL1;
    Sysreg.TPIDR_EL1;
    Sysreg.SP_EL1;
    Sysreg.ELR_EL1;
    Sysreg.SPSR_EL1;
    Sysreg.MDSCR_EL1;
  ]

(* EL0-accessible context (thread pointers, user stack): switched by the
   guest hypervisor directly; never traps at EL1. *)
let el0_state : Sysreg.t list =
  [ Sysreg.SP_EL0; Sysreg.TPIDR_EL0; Sysreg.TPIDRRO_EL0 ]

(* The subset of [el1_state] that has a VHE _EL12 access form.  A VHE
   hypervisor uses these to reach the VM's EL1 registers while E2H
   redirection sends plain EL1 accesses to its own EL2 registers. *)
let el12_capable : Sysreg.t list =
  [
    Sysreg.SCTLR_EL1; Sysreg.CPACR_EL1; Sysreg.TTBR0_EL1; Sysreg.TTBR1_EL1;
    Sysreg.TCR_EL1; Sysreg.ESR_EL1; Sysreg.AFSR0_EL1; Sysreg.AFSR1_EL1;
    Sysreg.FAR_EL1; Sysreg.MAIR_EL1; Sysreg.VBAR_EL1; Sysreg.CONTEXTIDR_EL1;
    Sysreg.AMAIR_EL1; Sysreg.CNTKCTL_EL1; Sysreg.ELR_EL1; Sysreg.SPSR_EL1;
  ]

(* vGIC state saved on exit (reads) — the hypervisor control interface.
   KVM uses 4 list registers on this hardware. *)
let vgic_lrs_in_use = 4

(* Timer handling per switch: the VM's EL1 virtual timer (EL0-accessible
   CNTV registers) plus the EL2 controls. *)
let timer_el0_state : Sysreg.t list =
  [ Sysreg.CNTV_CTL_EL0; Sysreg.CNTV_CVAL_EL0 ]

(* Self-hosted debug state: context-switched per world switch only when
   the VM is being debugged (KVM's debug-dirty flag); MDSCR is part of
   the base EL1 context already. *)
let debug_state : Sysreg.t list =
  List.concat
    (List.init Sysreg.debug_bkpts (fun n ->
         [ Sysreg.DBGBVR_EL1 n; Sysreg.DBGBCR_EL1 n; Sysreg.DBGWVR_EL1 n;
           Sysreg.DBGWCR_EL1 n ]))

(* PMU state: switched when perf events are active in the VM.  The
   EL0-accessible counters never trap; the EL1 interrupt-enable registers
   do (and are NV2-deferred). *)
let pmu_state : Sysreg.t list =
  [ Sysreg.PMCR_EL0; Sysreg.PMCNTENSET_EL0; Sysreg.PMOVSCLR_EL0;
    Sysreg.PMCCNTR_EL0; Sysreg.PMCCFILTR_EL0; Sysreg.PMUSERENR_EL0;
    Sysreg.PMSELR_EL0; Sysreg.PMINTENSET_EL1 ]
  @ List.init Sysreg.pmu_counters (fun n -> Sysreg.PMEVCNTR_EL0 n)
  @ List.init Sysreg.pmu_counters (fun n -> Sysreg.PMEVTYPER_EL0 n)

(* --- dense-index compiled forms ---

   The lists above are the readable, ablation-friendly source of truth;
   the forms below are what the hot paths consume: membership as a flat
   bool array instead of List.mem, register sets as precomputed
   dense-index arrays instead of per-element dispatch. *)

let index_array regs = Array.of_list (List.map Sysreg.index regs)

let membership regs =
  let m = Array.make Sysreg.count false in
  List.iter (fun r -> m.(Sysreg.index r) <- true) regs;
  m

let el12_capable_mask = membership el12_capable

let is_el12_capable r = el12_capable_mask.(Sysreg.index r)

let el1_state_arr = Array.of_list el1_state
let el0_state_arr = Array.of_list el0_state
let debug_state_arr = Array.of_list debug_state
let pmu_state_arr = Array.of_list pmu_state
let timer_el0_state_arr = Array.of_list timer_el0_state

(* The vGIC loops, one array per [used_lrs] in [0..Sysreg.lr_count]: the
   interface state, then the list registers in use, the only ones KVM
   touches (which matters for trap counts). *)
let vgic_prefixes head =
  let lrs = List.init Sysreg.lr_count (fun n -> Sysreg.ICH_LR_EL2 n) in
  let all = Array.of_list (head @ lrs) in
  Array.init (Sysreg.lr_count + 1) (fun n ->
      Array.sub all 0 (List.length head + n))

let vgic_saved =
  vgic_prefixes
    Sysreg.[ ICH_VMCR_EL2; ICH_MISR_EL2; ICH_ELRSR_EL2; ICH_AP1R_EL2 0 ]

let vgic_restored = vgic_prefixes [ Sysreg.ICH_VMCR_EL2 ]

(* Offsets of each register in a vCPU's in-memory context-save area; the
   world-switch code stores to and loads from these slots.  Slot order
   follows [Sysreg.all] (the layout guest images were built against), the
   lookup is one array load keyed by the dense index. *)
(* domain-safety: allowlisted global — populated at module load,
   read-only afterwards. *)
let ctx_slot_tbl : int array =
  let tbl = Array.make Sysreg.count (-1) in
  List.iteri (fun i r -> tbl.(Sysreg.index r) <- 8 * i) Sysreg.all;
  tbl

let ctx_slot (r : Sysreg.t) =
  if Sysreg.in_range r then Array.unsafe_get ctx_slot_tbl (Sysreg.index r)
  else invalid_arg ("Reglists.ctx_slot: " ^ Sysreg.name r)
