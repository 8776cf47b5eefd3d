(* The system-register database.

   One table, [rows], states each register the simulator models once:
   its name, its A64 encoding (op0, op1, CRn, CRm, op2), the minimum
   exception level that may access it directly, and its NEVE class from
   Tables 3, 4 and 5 of the paper.  Every query of those facts reads
   that row; only [index] (the dense numbering) and the formulas for
   out-of-range banked members are written per register.

   The row order is the order of [all], which fixes the context-save
   slots, the deferred-access-page offsets and the paravirtual form
   numbers: a new register is appended.  Deferred-access-page offsets are
   synthetic (stable, unique, 8-byte aligned); the paper leaves the
   layout to the architecture as long as every register has a
   well-defined offset from VNCR_EL2.BADDR (Section 6.1). *)

type t =
  (* --- EL0-accessible registers --- *)
  | SP_EL0
  | TPIDR_EL0
  | TPIDRRO_EL0
  | CNTV_CTL_EL0
  | CNTV_CVAL_EL0
  | CNTP_CTL_EL0
  | CNTP_CVAL_EL0
  | CNTVCT_EL0
  | CNTFRQ_EL0
  | PMUSERENR_EL0
  | PMSELR_EL0
  (* --- PMU (performance monitors; Section 6.1 discusses their NEVE
     treatment) --- *)
  | PMCR_EL0
  | PMCNTENSET_EL0
  | PMCNTENCLR_EL0
  | PMOVSCLR_EL0
  | PMCCNTR_EL0
  | PMCCFILTR_EL0
  | PMEVCNTR_EL0 of int   (* n = 0..5 *)
  | PMEVTYPER_EL0 of int  (* n = 0..5 *)
  | PMINTENSET_EL1
  | PMINTENCLR_EL1
  (* --- self-hosted debug (breakpoints/watchpoints) --- *)
  | DBGBVR_EL1 of int     (* n = 0..5 *)
  | DBGBCR_EL1 of int
  | DBGWVR_EL1 of int
  | DBGWCR_EL1 of int
  (* --- EL1 registers --- *)
  | SCTLR_EL1
  | ACTLR_EL1
  | CPACR_EL1
  | TTBR0_EL1
  | TTBR1_EL1
  | TCR_EL1
  | ESR_EL1
  | FAR_EL1
  | AFSR0_EL1
  | AFSR1_EL1
  | MAIR_EL1
  | AMAIR_EL1
  | CONTEXTIDR_EL1
  | VBAR_EL1
  | ELR_EL1
  | SPSR_EL1
  | SP_EL1
  | PAR_EL1
  | TPIDR_EL1
  | CSSELR_EL1
  | CNTKCTL_EL1
  | MDSCR_EL1
  | MPIDR_EL1
  | MIDR_EL1
  | CurrentEL
  (* --- GICv3 CPU interface (guest-visible) --- *)
  | ICC_PMR_EL1
  | ICC_IAR1_EL1
  | ICC_EOIR1_EL1
  | ICC_DIR_EL1
  | ICC_BPR1_EL1
  | ICC_CTLR_EL1
  | ICC_SGI1R_EL1
  | ICC_IGRPEN1_EL1
  (* --- EL2 registers --- *)
  | HCR_EL2
  | HACR_EL2
  | HSTR_EL2
  | HPFAR_EL2
  | TPIDR_EL2
  | VPIDR_EL2
  | VMPIDR_EL2
  | VTCR_EL2
  | VTTBR_EL2
  | VNCR_EL2
  | SCTLR_EL2
  | ACTLR_EL2
  | TTBR0_EL2
  | TTBR1_EL2          (* VHE only *)
  | TCR_EL2
  | ESR_EL2
  | FAR_EL2
  | AFSR0_EL2
  | AFSR1_EL2
  | MAIR_EL2
  | AMAIR_EL2
  | CONTEXTIDR_EL2     (* VHE only *)
  | VBAR_EL2
  | ELR_EL2
  | SPSR_EL2
  | SP_EL2
  | CPTR_EL2
  | MDCR_EL2
  | CNTHCTL_EL2
  | CNTVOFF_EL2
  | CNTHP_CTL_EL2
  | CNTHP_CVAL_EL2
  | CNTHV_CTL_EL2      (* VHE only: the EL2 virtual timer *)
  | CNTHV_CVAL_EL2     (* VHE only *)
  (* --- GIC hypervisor control interface (Table 5) --- *)
  | ICH_HCR_EL2
  | ICH_VTR_EL2
  | ICH_VMCR_EL2
  | ICH_MISR_EL2
  | ICH_EISR_EL2
  | ICH_ELRSR_EL2
  | ICH_AP0R_EL2 of int  (* n = 0..3 *)
  | ICH_AP1R_EL2 of int  (* n = 0..3 *)
  | ICH_LR_EL2 of int    (* n = 0..15 *)
  (* --- FEAT_RAS error virtualization (appended last: dense indices and
     snapshot context slots are positional) --- *)
  | VSESR_EL2            (* virtual SError syndrome, delivered via HCR.VSE *)
  | VDISR_EL2            (* deferred-error status record *)

(* How an access instruction names the register.  VHE adds _EL12 forms
   (access the EL1 register from EL2 when E2H redirection is active) and
   _EL02 forms for the EL0 timer registers. *)
type alias = Direct | EL12 | EL02

type access = { reg : t; alias : alias }

let lr_count = 16
let apr_count = 4
let pmu_counters = 6   (* event counters implemented *)
let debug_bkpts = 6    (* breakpoint/watchpoint pairs implemented *)

(* NEVE classification (Tables 3, 4, 5 plus the PMU/debug/timer notes at
   the end of Section 6.1). *)
type neve_class =
  | NV_vm_reg                (* Table 3: access deferred to memory *)
  | NV_redirect of t         (* Table 4: redirect to the EL1 counterpart *)
  | NV_redirect_vhe of t     (* Table 4 "(VHE)" rows *)
  | NV_trap_on_write         (* Table 4/5: reads from cached copy, writes trap *)
  | NV_redirect_or_trap of t (* Table 4: TCR_EL2/TTBR0_EL2 — redirect for a
                                VHE guest hypervisor, cached-read/trap-write
                                for a non-VHE one *)
  | NV_timer_trap            (* EL2 timer registers: always trap, reads must
                                observe hardware-updated values *)
  | NV_none                  (* not subject to NEVE treatment *)

(* Re-exported so that the rows name levels unqualified. *)
type el = Pstate.el = EL0 | EL1 | EL2

(* --- The register table ---

   One constant row per register: (register, name, encoding, minimum EL,
   NEVE class), the minimum EL being the lowest level that can access
   the register without trapping when no virtualization trapping is
   configured.  The rows are static data: reading one allocates
   nothing. *)

type row = t * string * (int * int * int * int * int) * el * neve_class

let rows : row list =
  [
    (* --- EL0-accessible registers; Section 6.1 defers the two PMU
       user-access controls like VM registers --- *)
    (SP_EL0, "SP_EL0", (3, 0, 4, 1, 0), EL0, NV_none);
    (TPIDR_EL0, "TPIDR_EL0", (3, 3, 13, 0, 2), EL0, NV_none);
    (TPIDRRO_EL0, "TPIDRRO_EL0", (3, 3, 13, 0, 3), EL0, NV_none);
    (CNTV_CTL_EL0, "CNTV_CTL_EL0", (3, 3, 14, 3, 1), EL0, NV_none);
    (CNTV_CVAL_EL0, "CNTV_CVAL_EL0", (3, 3, 14, 3, 2), EL0, NV_none);
    (CNTP_CTL_EL0, "CNTP_CTL_EL0", (3, 3, 14, 2, 1), EL0, NV_none);
    (CNTP_CVAL_EL0, "CNTP_CVAL_EL0", (3, 3, 14, 2, 2), EL0, NV_none);
    (CNTVCT_EL0, "CNTVCT_EL0", (3, 3, 14, 0, 2), EL0, NV_none);
    (CNTFRQ_EL0, "CNTFRQ_EL0", (3, 3, 14, 0, 0), EL0, NV_none);
    (PMUSERENR_EL0, "PMUSERENR_EL0", (3, 3, 9, 14, 0), EL0, NV_vm_reg);
    (PMSELR_EL0, "PMSELR_EL0", (3, 3, 9, 12, 5), EL0, NV_vm_reg);
    (* --- EL1 registers: Table 3's "VM Execution Control" group is
       deferred to memory; MDSCR_EL1 is a cached-read, trap-on-write debug
       control (Section 6.1).  The explicit SP_EL1 encoding (op1=4) is an
       EL2 instruction: at EL1 the banked stack pointer is just SP. --- *)
    (SCTLR_EL1, "SCTLR_EL1", (3, 0, 1, 0, 0), EL1, NV_vm_reg);
    (ACTLR_EL1, "ACTLR_EL1", (3, 0, 1, 0, 1), EL1, NV_none);
    (CPACR_EL1, "CPACR_EL1", (3, 0, 1, 0, 2), EL1, NV_vm_reg);
    (TTBR0_EL1, "TTBR0_EL1", (3, 0, 2, 0, 0), EL1, NV_vm_reg);
    (TTBR1_EL1, "TTBR1_EL1", (3, 0, 2, 0, 1), EL1, NV_vm_reg);
    (TCR_EL1, "TCR_EL1", (3, 0, 2, 0, 2), EL1, NV_vm_reg);
    (ESR_EL1, "ESR_EL1", (3, 0, 5, 2, 0), EL1, NV_vm_reg);
    (FAR_EL1, "FAR_EL1", (3, 0, 6, 0, 0), EL1, NV_vm_reg);
    (AFSR0_EL1, "AFSR0_EL1", (3, 0, 5, 1, 0), EL1, NV_vm_reg);
    (AFSR1_EL1, "AFSR1_EL1", (3, 0, 5, 1, 1), EL1, NV_vm_reg);
    (MAIR_EL1, "MAIR_EL1", (3, 0, 10, 2, 0), EL1, NV_vm_reg);
    (AMAIR_EL1, "AMAIR_EL1", (3, 0, 10, 3, 0), EL1, NV_vm_reg);
    (CONTEXTIDR_EL1, "CONTEXTIDR_EL1", (3, 0, 13, 0, 1), EL1, NV_vm_reg);
    (VBAR_EL1, "VBAR_EL1", (3, 0, 12, 0, 0), EL1, NV_vm_reg);
    (ELR_EL1, "ELR_EL1", (3, 0, 4, 0, 1), EL1, NV_vm_reg);
    (SPSR_EL1, "SPSR_EL1", (3, 0, 4, 0, 0), EL1, NV_vm_reg);
    (SP_EL1, "SP_EL1", (3, 4, 4, 1, 0), EL2, NV_vm_reg);
    (PAR_EL1, "PAR_EL1", (3, 0, 7, 4, 0), EL1, NV_none);
    (TPIDR_EL1, "TPIDR_EL1", (3, 0, 13, 0, 4), EL1, NV_none);
    (CSSELR_EL1, "CSSELR_EL1", (3, 2, 0, 0, 0), EL1, NV_none);
    (CNTKCTL_EL1, "CNTKCTL_EL1", (3, 0, 14, 1, 0), EL1, NV_none);
    (MDSCR_EL1, "MDSCR_EL1", (2, 0, 0, 2, 2), EL1, NV_trap_on_write);
    (MPIDR_EL1, "MPIDR_EL1", (3, 0, 0, 0, 5), EL1, NV_none);
    (MIDR_EL1, "MIDR_EL1", (3, 0, 0, 0, 0), EL1, NV_none);
    (CurrentEL, "CurrentEL", (3, 0, 4, 2, 2), EL1, NV_none);
    (* --- GICv3 CPU interface (guest-visible) --- *)
    (ICC_PMR_EL1, "ICC_PMR_EL1", (3, 0, 4, 6, 0), EL1, NV_none);
    (ICC_IAR1_EL1, "ICC_IAR1_EL1", (3, 0, 12, 12, 0), EL1, NV_none);
    (ICC_EOIR1_EL1, "ICC_EOIR1_EL1", (3, 0, 12, 12, 1), EL1, NV_none);
    (ICC_DIR_EL1, "ICC_DIR_EL1", (3, 0, 12, 11, 1), EL1, NV_none);
    (ICC_BPR1_EL1, "ICC_BPR1_EL1", (3, 0, 12, 12, 3), EL1, NV_none);
    (ICC_CTLR_EL1, "ICC_CTLR_EL1", (3, 0, 12, 12, 4), EL1, NV_none);
    (ICC_SGI1R_EL1, "ICC_SGI1R_EL1", (3, 0, 12, 11, 5), EL1, NV_none);
    (ICC_IGRPEN1_EL1, "ICC_IGRPEN1_EL1", (3, 0, 12, 12, 7), EL1, NV_none);
    (* --- EL2 registers: Table 3's "VM Trap Control" group is deferred to
       memory (the paper's Table 3 prints TPIDR_EL2 twice) --- *)
    (HCR_EL2, "HCR_EL2", (3, 4, 1, 1, 0), EL2, NV_vm_reg);
    (HACR_EL2, "HACR_EL2", (3, 4, 1, 1, 7), EL2, NV_vm_reg);
    (HSTR_EL2, "HSTR_EL2", (3, 4, 1, 1, 3), EL2, NV_vm_reg);
    (HPFAR_EL2, "HPFAR_EL2", (3, 4, 6, 0, 4), EL2, NV_vm_reg);
    (TPIDR_EL2, "TPIDR_EL2", (3, 4, 13, 0, 2), EL2, NV_vm_reg);
    (VPIDR_EL2, "VPIDR_EL2", (3, 4, 0, 0, 0), EL2, NV_vm_reg);
    (VMPIDR_EL2, "VMPIDR_EL2", (3, 4, 0, 0, 5), EL2, NV_vm_reg);
    (VTCR_EL2, "VTCR_EL2", (3, 4, 2, 1, 2), EL2, NV_vm_reg);
    (VTTBR_EL2, "VTTBR_EL2", (3, 4, 2, 1, 0), EL2, NV_vm_reg);
    (VNCR_EL2, "VNCR_EL2", (3, 4, 2, 2, 0), EL2, NV_vm_reg);
    (* --- Table 4: redirect to the EL1 twin (the "(VHE)" rows only for a
       VHE guest hypervisor), redirect or trap, and trap on write --- *)
    (SCTLR_EL2, "SCTLR_EL2", (3, 4, 1, 0, 0), EL2, NV_redirect SCTLR_EL1);
    (ACTLR_EL2, "ACTLR_EL2", (3, 4, 1, 0, 1), EL2, NV_none);
    (TTBR0_EL2, "TTBR0_EL2", (3, 4, 2, 0, 0), EL2,
     NV_redirect_or_trap TTBR0_EL1);
    (TTBR1_EL2, "TTBR1_EL2", (3, 4, 2, 0, 1), EL2, NV_redirect_vhe TTBR1_EL1);
    (TCR_EL2, "TCR_EL2", (3, 4, 2, 0, 2), EL2, NV_redirect_or_trap TCR_EL1);
    (ESR_EL2, "ESR_EL2", (3, 4, 5, 2, 0), EL2, NV_redirect ESR_EL1);
    (FAR_EL2, "FAR_EL2", (3, 4, 6, 0, 0), EL2, NV_redirect FAR_EL1);
    (AFSR0_EL2, "AFSR0_EL2", (3, 4, 5, 1, 0), EL2, NV_redirect AFSR0_EL1);
    (AFSR1_EL2, "AFSR1_EL2", (3, 4, 5, 1, 1), EL2, NV_redirect AFSR1_EL1);
    (MAIR_EL2, "MAIR_EL2", (3, 4, 10, 2, 0), EL2, NV_redirect MAIR_EL1);
    (AMAIR_EL2, "AMAIR_EL2", (3, 4, 10, 3, 0), EL2, NV_redirect AMAIR_EL1);
    (CONTEXTIDR_EL2, "CONTEXTIDR_EL2", (3, 4, 13, 0, 1), EL2,
     NV_redirect_vhe CONTEXTIDR_EL1);
    (VBAR_EL2, "VBAR_EL2", (3, 4, 12, 0, 0), EL2, NV_redirect VBAR_EL1);
    (ELR_EL2, "ELR_EL2", (3, 4, 4, 0, 1), EL2, NV_redirect ELR_EL1);
    (SPSR_EL2, "SPSR_EL2", (3, 4, 4, 0, 0), EL2, NV_redirect SPSR_EL1);
    (SP_EL2, "SP_EL2", (3, 6, 4, 1, 0), EL2, NV_none);
    (CPTR_EL2, "CPTR_EL2", (3, 4, 1, 1, 2), EL2, NV_trap_on_write);
    (MDCR_EL2, "MDCR_EL2", (3, 4, 1, 1, 1), EL2, NV_trap_on_write);
    (CNTHCTL_EL2, "CNTHCTL_EL2", (3, 4, 14, 1, 0), EL2, NV_trap_on_write);
    (CNTVOFF_EL2, "CNTVOFF_EL2", (3, 4, 14, 0, 3), EL2, NV_trap_on_write);
    (* --- EL2 timers: always trap, reads must observe hardware-updated
       values (Section 6.1) --- *)
    (CNTHP_CTL_EL2, "CNTHP_CTL_EL2", (3, 4, 14, 2, 1), EL2, NV_timer_trap);
    (CNTHP_CVAL_EL2, "CNTHP_CVAL_EL2", (3, 4, 14, 2, 2), EL2, NV_timer_trap);
    (CNTHV_CTL_EL2, "CNTHV_CTL_EL2", (3, 4, 14, 3, 1), EL2, NV_timer_trap);
    (CNTHV_CVAL_EL2, "CNTHV_CVAL_EL2", (3, 4, 14, 3, 2), EL2, NV_timer_trap);
    (* --- Table 5: the GIC hypervisor control interface --- *)
    (ICH_HCR_EL2, "ICH_HCR_EL2", (3, 4, 12, 11, 0), EL2, NV_trap_on_write);
    (ICH_VTR_EL2, "ICH_VTR_EL2", (3, 4, 12, 11, 1), EL2, NV_trap_on_write);
    (ICH_VMCR_EL2, "ICH_VMCR_EL2", (3, 4, 12, 11, 7), EL2, NV_trap_on_write);
    (ICH_MISR_EL2, "ICH_MISR_EL2", (3, 4, 12, 11, 2), EL2, NV_trap_on_write);
    (ICH_EISR_EL2, "ICH_EISR_EL2", (3, 4, 12, 11, 3), EL2, NV_trap_on_write);
    (ICH_ELRSR_EL2, "ICH_ELRSR_EL2", (3, 4, 12, 11, 5), EL2, NV_trap_on_write);
    (* --- PMU and self-hosted debug (breakpoints/watchpoints): outside
       NEVE's classification --- *)
    (PMCR_EL0, "PMCR_EL0", (3, 3, 9, 12, 0), EL0, NV_none);
    (PMCNTENSET_EL0, "PMCNTENSET_EL0", (3, 3, 9, 12, 1), EL0, NV_none);
    (PMCNTENCLR_EL0, "PMCNTENCLR_EL0", (3, 3, 9, 12, 2), EL0, NV_none);
    (PMOVSCLR_EL0, "PMOVSCLR_EL0", (3, 3, 9, 12, 3), EL0, NV_none);
    (PMCCNTR_EL0, "PMCCNTR_EL0", (3, 3, 9, 13, 0), EL0, NV_none);
    (PMCCFILTR_EL0, "PMCCFILTR_EL0", (3, 3, 14, 15, 7), EL0, NV_none);
    (PMINTENSET_EL1, "PMINTENSET_EL1", (3, 0, 9, 14, 1), EL1, NV_none);
    (PMINTENCLR_EL1, "PMINTENCLR_EL1", (3, 0, 9, 14, 2), EL1, NV_none);
    (PMEVCNTR_EL0 0, "PMEVCNTR0_EL0", (3, 3, 14, 8, 0), EL0, NV_none);
    (PMEVCNTR_EL0 1, "PMEVCNTR1_EL0", (3, 3, 14, 8, 1), EL0, NV_none);
    (PMEVCNTR_EL0 2, "PMEVCNTR2_EL0", (3, 3, 14, 8, 2), EL0, NV_none);
    (PMEVCNTR_EL0 3, "PMEVCNTR3_EL0", (3, 3, 14, 8, 3), EL0, NV_none);
    (PMEVCNTR_EL0 4, "PMEVCNTR4_EL0", (3, 3, 14, 8, 4), EL0, NV_none);
    (PMEVCNTR_EL0 5, "PMEVCNTR5_EL0", (3, 3, 14, 8, 5), EL0, NV_none);
    (PMEVTYPER_EL0 0, "PMEVTYPER0_EL0", (3, 3, 14, 12, 0), EL0, NV_none);
    (PMEVTYPER_EL0 1, "PMEVTYPER1_EL0", (3, 3, 14, 12, 1), EL0, NV_none);
    (PMEVTYPER_EL0 2, "PMEVTYPER2_EL0", (3, 3, 14, 12, 2), EL0, NV_none);
    (PMEVTYPER_EL0 3, "PMEVTYPER3_EL0", (3, 3, 14, 12, 3), EL0, NV_none);
    (PMEVTYPER_EL0 4, "PMEVTYPER4_EL0", (3, 3, 14, 12, 4), EL0, NV_none);
    (PMEVTYPER_EL0 5, "PMEVTYPER5_EL0", (3, 3, 14, 12, 5), EL0, NV_none);
    (DBGBVR_EL1 0, "DBGBVR0_EL1", (2, 0, 0, 0, 4), EL1, NV_none);
    (DBGBVR_EL1 1, "DBGBVR1_EL1", (2, 0, 0, 1, 4), EL1, NV_none);
    (DBGBVR_EL1 2, "DBGBVR2_EL1", (2, 0, 0, 2, 4), EL1, NV_none);
    (DBGBVR_EL1 3, "DBGBVR3_EL1", (2, 0, 0, 3, 4), EL1, NV_none);
    (DBGBVR_EL1 4, "DBGBVR4_EL1", (2, 0, 0, 4, 4), EL1, NV_none);
    (DBGBVR_EL1 5, "DBGBVR5_EL1", (2, 0, 0, 5, 4), EL1, NV_none);
    (DBGBCR_EL1 0, "DBGBCR0_EL1", (2, 0, 0, 0, 5), EL1, NV_none);
    (DBGBCR_EL1 1, "DBGBCR1_EL1", (2, 0, 0, 1, 5), EL1, NV_none);
    (DBGBCR_EL1 2, "DBGBCR2_EL1", (2, 0, 0, 2, 5), EL1, NV_none);
    (DBGBCR_EL1 3, "DBGBCR3_EL1", (2, 0, 0, 3, 5), EL1, NV_none);
    (DBGBCR_EL1 4, "DBGBCR4_EL1", (2, 0, 0, 4, 5), EL1, NV_none);
    (DBGBCR_EL1 5, "DBGBCR5_EL1", (2, 0, 0, 5, 5), EL1, NV_none);
    (DBGWVR_EL1 0, "DBGWVR0_EL1", (2, 0, 0, 0, 6), EL1, NV_none);
    (DBGWVR_EL1 1, "DBGWVR1_EL1", (2, 0, 0, 1, 6), EL1, NV_none);
    (DBGWVR_EL1 2, "DBGWVR2_EL1", (2, 0, 0, 2, 6), EL1, NV_none);
    (DBGWVR_EL1 3, "DBGWVR3_EL1", (2, 0, 0, 3, 6), EL1, NV_none);
    (DBGWVR_EL1 4, "DBGWVR4_EL1", (2, 0, 0, 4, 6), EL1, NV_none);
    (DBGWVR_EL1 5, "DBGWVR5_EL1", (2, 0, 0, 5, 6), EL1, NV_none);
    (DBGWCR_EL1 0, "DBGWCR0_EL1", (2, 0, 0, 0, 7), EL1, NV_none);
    (DBGWCR_EL1 1, "DBGWCR1_EL1", (2, 0, 0, 1, 7), EL1, NV_none);
    (DBGWCR_EL1 2, "DBGWCR2_EL1", (2, 0, 0, 2, 7), EL1, NV_none);
    (DBGWCR_EL1 3, "DBGWCR3_EL1", (2, 0, 0, 3, 7), EL1, NV_none);
    (DBGWCR_EL1 4, "DBGWCR4_EL1", (2, 0, 0, 4, 7), EL1, NV_none);
    (DBGWCR_EL1 5, "DBGWCR5_EL1", (2, 0, 0, 5, 7), EL1, NV_none);
    (* --- Table 5, banked: active priorities and list registers --- *)
    (ICH_AP0R_EL2 0, "ICH_AP0R0_EL2", (3, 4, 12, 8, 0), EL2, NV_trap_on_write);
    (ICH_AP0R_EL2 1, "ICH_AP0R1_EL2", (3, 4, 12, 8, 1), EL2, NV_trap_on_write);
    (ICH_AP0R_EL2 2, "ICH_AP0R2_EL2", (3, 4, 12, 8, 2), EL2, NV_trap_on_write);
    (ICH_AP0R_EL2 3, "ICH_AP0R3_EL2", (3, 4, 12, 8, 3), EL2, NV_trap_on_write);
    (ICH_AP1R_EL2 0, "ICH_AP1R0_EL2", (3, 4, 12, 9, 0), EL2, NV_trap_on_write);
    (ICH_AP1R_EL2 1, "ICH_AP1R1_EL2", (3, 4, 12, 9, 1), EL2, NV_trap_on_write);
    (ICH_AP1R_EL2 2, "ICH_AP1R2_EL2", (3, 4, 12, 9, 2), EL2, NV_trap_on_write);
    (ICH_AP1R_EL2 3, "ICH_AP1R3_EL2", (3, 4, 12, 9, 3), EL2, NV_trap_on_write);
    (ICH_LR_EL2 0, "ICH_LR0_EL2", (3, 4, 12, 12, 0), EL2, NV_trap_on_write);
    (ICH_LR_EL2 1, "ICH_LR1_EL2", (3, 4, 12, 12, 1), EL2, NV_trap_on_write);
    (ICH_LR_EL2 2, "ICH_LR2_EL2", (3, 4, 12, 12, 2), EL2, NV_trap_on_write);
    (ICH_LR_EL2 3, "ICH_LR3_EL2", (3, 4, 12, 12, 3), EL2, NV_trap_on_write);
    (ICH_LR_EL2 4, "ICH_LR4_EL2", (3, 4, 12, 12, 4), EL2, NV_trap_on_write);
    (ICH_LR_EL2 5, "ICH_LR5_EL2", (3, 4, 12, 12, 5), EL2, NV_trap_on_write);
    (ICH_LR_EL2 6, "ICH_LR6_EL2", (3, 4, 12, 12, 6), EL2, NV_trap_on_write);
    (ICH_LR_EL2 7, "ICH_LR7_EL2", (3, 4, 12, 12, 7), EL2, NV_trap_on_write);
    (ICH_LR_EL2 8, "ICH_LR8_EL2", (3, 4, 12, 13, 0), EL2, NV_trap_on_write);
    (ICH_LR_EL2 9, "ICH_LR9_EL2", (3, 4, 12, 13, 1), EL2, NV_trap_on_write);
    (ICH_LR_EL2 10, "ICH_LR10_EL2", (3, 4, 12, 13, 2), EL2, NV_trap_on_write);
    (ICH_LR_EL2 11, "ICH_LR11_EL2", (3, 4, 12, 13, 3), EL2, NV_trap_on_write);
    (ICH_LR_EL2 12, "ICH_LR12_EL2", (3, 4, 12, 13, 4), EL2, NV_trap_on_write);
    (ICH_LR_EL2 13, "ICH_LR13_EL2", (3, 4, 12, 13, 5), EL2, NV_trap_on_write);
    (ICH_LR_EL2 14, "ICH_LR14_EL2", (3, 4, 12, 13, 6), EL2, NV_trap_on_write);
    (ICH_LR_EL2 15, "ICH_LR15_EL2", (3, 4, 12, 13, 7), EL2, NV_trap_on_write);
    (* --- FEAT_RAS error virtualization, appended last (context slots and
       deferred-page offsets are positional).  Kept outside the deferred
       page: the modeled hardware has FEAT_RAS but not the NV2 RAS-page
       extension, so ARMv8.3 and NEVE guest hypervisors trap on them
       identically. --- *)
    (VSESR_EL2, "VSESR_EL2", (3, 4, 5, 2, 3), EL2, NV_none);
    (VDISR_EL2, "VDISR_EL2", (3, 4, 12, 1, 1), EL2, NV_none);
  ]

let all : t list = List.map (fun (r, _, _, _, _) -> r) rows

(* --- Dense integer index ---

   Every register identity maps to a unique index in [0, count): flat
   arrays keyed by [index] replace hashed lookups on the MRS/MSR hot
   path (register file, context-slot table, deferred-page offsets).
   The layout follows the constructor declaration order; banked
   registers occupy contiguous runs.  The bijectivity of the mapping
   over [rows] is established at module init.  [index] is inlined: every
   row query and register-file access starts with it. *)

let count = 154

let[@inline] index = function
  | SP_EL0 -> 0
  | TPIDR_EL0 -> 1
  | TPIDRRO_EL0 -> 2
  | CNTV_CTL_EL0 -> 3
  | CNTV_CVAL_EL0 -> 4
  | CNTP_CTL_EL0 -> 5
  | CNTP_CVAL_EL0 -> 6
  | CNTVCT_EL0 -> 7
  | CNTFRQ_EL0 -> 8
  | PMUSERENR_EL0 -> 9
  | PMSELR_EL0 -> 10
  | PMCR_EL0 -> 11
  | PMCNTENSET_EL0 -> 12
  | PMCNTENCLR_EL0 -> 13
  | PMOVSCLR_EL0 -> 14
  | PMCCNTR_EL0 -> 15
  | PMCCFILTR_EL0 -> 16
  | PMEVCNTR_EL0 n -> 17 + n   (* 17..22 *)
  | PMEVTYPER_EL0 n -> 23 + n  (* 23..28 *)
  | PMINTENSET_EL1 -> 29
  | PMINTENCLR_EL1 -> 30
  | DBGBVR_EL1 n -> 31 + n     (* 31..36 *)
  | DBGBCR_EL1 n -> 37 + n     (* 37..42 *)
  | DBGWVR_EL1 n -> 43 + n     (* 43..48 *)
  | DBGWCR_EL1 n -> 49 + n     (* 49..54 *)
  | SCTLR_EL1 -> 55
  | ACTLR_EL1 -> 56
  | CPACR_EL1 -> 57
  | TTBR0_EL1 -> 58
  | TTBR1_EL1 -> 59
  | TCR_EL1 -> 60
  | ESR_EL1 -> 61
  | FAR_EL1 -> 62
  | AFSR0_EL1 -> 63
  | AFSR1_EL1 -> 64
  | MAIR_EL1 -> 65
  | AMAIR_EL1 -> 66
  | CONTEXTIDR_EL1 -> 67
  | VBAR_EL1 -> 68
  | ELR_EL1 -> 69
  | SPSR_EL1 -> 70
  | SP_EL1 -> 71
  | PAR_EL1 -> 72
  | TPIDR_EL1 -> 73
  | CSSELR_EL1 -> 74
  | CNTKCTL_EL1 -> 75
  | MDSCR_EL1 -> 76
  | MPIDR_EL1 -> 77
  | MIDR_EL1 -> 78
  | CurrentEL -> 79
  | ICC_PMR_EL1 -> 80
  | ICC_IAR1_EL1 -> 81
  | ICC_EOIR1_EL1 -> 82
  | ICC_DIR_EL1 -> 83
  | ICC_BPR1_EL1 -> 84
  | ICC_CTLR_EL1 -> 85
  | ICC_SGI1R_EL1 -> 86
  | ICC_IGRPEN1_EL1 -> 87
  | HCR_EL2 -> 88
  | HACR_EL2 -> 89
  | HSTR_EL2 -> 90
  | HPFAR_EL2 -> 91
  | TPIDR_EL2 -> 92
  | VPIDR_EL2 -> 93
  | VMPIDR_EL2 -> 94
  | VTCR_EL2 -> 95
  | VTTBR_EL2 -> 96
  | VNCR_EL2 -> 97
  | SCTLR_EL2 -> 98
  | ACTLR_EL2 -> 99
  | TTBR0_EL2 -> 100
  | TTBR1_EL2 -> 101
  | TCR_EL2 -> 102
  | ESR_EL2 -> 103
  | FAR_EL2 -> 104
  | AFSR0_EL2 -> 105
  | AFSR1_EL2 -> 106
  | MAIR_EL2 -> 107
  | AMAIR_EL2 -> 108
  | CONTEXTIDR_EL2 -> 109
  | VBAR_EL2 -> 110
  | ELR_EL2 -> 111
  | SPSR_EL2 -> 112
  | SP_EL2 -> 113
  | CPTR_EL2 -> 114
  | MDCR_EL2 -> 115
  | CNTHCTL_EL2 -> 116
  | CNTVOFF_EL2 -> 117
  | CNTHP_CTL_EL2 -> 118
  | CNTHP_CVAL_EL2 -> 119
  | CNTHV_CTL_EL2 -> 120
  | CNTHV_CVAL_EL2 -> 121
  | ICH_HCR_EL2 -> 122
  | ICH_VTR_EL2 -> 123
  | ICH_VMCR_EL2 -> 124
  | ICH_MISR_EL2 -> 125
  | ICH_EISR_EL2 -> 126
  | ICH_ELRSR_EL2 -> 127
  | ICH_AP0R_EL2 n -> 128 + n  (* 128..131 *)
  | ICH_AP1R_EL2 n -> 132 + n  (* 132..135 *)
  | ICH_LR_EL2 n -> 136 + n    (* 136..151 *)
  | VSESR_EL2 -> 152
  | VDISR_EL2 -> 153

(* The rows by dense index.
   domain-safety: allowlisted global — populated (and checked bijective)
   at module load, read-only afterwards. *)
let by_index : row array =
  let tbl = Array.make count (List.hd rows) in
  let seen = Array.make count false in
  List.iter
    (fun ((r, name, _, _, _) as row) ->
      let i = index r in
      if i < 0 || i >= count then
        invalid_arg ("Sysreg.index out of range for " ^ name);
      if seen.(i) then invalid_arg ("Sysreg.index collision at " ^ name);
      seen.(i) <- true;
      tbl.(i) <- row)
    rows;
  Array.iteri
    (fun i present ->
      if not present then
        invalid_arg (Printf.sprintf "Sysreg.index: slot %d unassigned" i))
    seen;
  tbl

let of_index i =
  if i < 0 || i >= count then invalid_arg "Sysreg.of_index";
  let r, _, _, _, _ = by_index.(i) in
  r

(* Whether a parameterized register's number is one the model implements
   (the registers [index] numbers without aliasing a neighbour).  Inlined:
   for a constant constructor it is one test. *)
let[@inline] in_range = function
  | PMEVCNTR_EL0 n | PMEVTYPER_EL0 n -> n >= 0 && n < pmu_counters
  | DBGBVR_EL1 n | DBGBCR_EL1 n | DBGWVR_EL1 n | DBGWCR_EL1 n ->
    n >= 0 && n < debug_bkpts
  | ICH_AP0R_EL2 n | ICH_AP1R_EL2 n -> n >= 0 && n < apr_count
  | ICH_LR_EL2 n -> n >= 0 && n < lr_count
  | _ -> true

(* The row of a banked member past the implemented ones, by the formulas
   the table's banked rows follow: the model holds no such register, but
   error messages and decoders still name and encode it. *)
let banked_row r =
  let row fmt n enc el cls = (r, Printf.sprintf fmt n, enc, el, cls) in
  match r with
  | PMEVCNTR_EL0 n -> row "PMEVCNTR%d_EL0" n (3, 3, 14, 8, n) EL0 NV_none
  | PMEVTYPER_EL0 n -> row "PMEVTYPER%d_EL0" n (3, 3, 14, 12, n) EL0 NV_none
  | DBGBVR_EL1 n -> row "DBGBVR%d_EL1" n (2, 0, 0, n, 4) EL1 NV_none
  | DBGBCR_EL1 n -> row "DBGBCR%d_EL1" n (2, 0, 0, n, 5) EL1 NV_none
  | DBGWVR_EL1 n -> row "DBGWVR%d_EL1" n (2, 0, 0, n, 6) EL1 NV_none
  | DBGWCR_EL1 n -> row "DBGWCR%d_EL1" n (2, 0, 0, n, 7) EL1 NV_none
  | ICH_AP0R_EL2 n ->
    row "ICH_AP0R%d_EL2" n (3, 4, 12, 8, n) EL2 NV_trap_on_write
  | ICH_AP1R_EL2 n ->
    row "ICH_AP1R%d_EL2" n (3, 4, 12, 9, n) EL2 NV_trap_on_write
  | ICH_LR_EL2 n ->
    let enc = if n < 8 then (3, 4, 12, 12, n) else (3, 4, 12, 13, n - 8) in
    row "ICH_LR%d_EL2" n enc EL2 NV_trap_on_write
  | _ -> by_index.(index r)

let[@inline] row r =
  if in_range r then Array.unsafe_get by_index (index r) else banked_row r

let name r = let _, name, _, _, _ = row r in name
let enc r = let _, _, enc, _, _ = row r in enc
let min_el r = let _, _, _, el, _ = row r in el
let neve_class r = let _, _, _, _, cls = row r in cls

let access_name { reg; alias } =
  match alias with
  | Direct -> name reg
  | EL12 ->
    (* SCTLR_EL1 accessed as SCTLR_EL12, etc. *)
    let base = name reg in
    (match String.index_opt base '1' with
     | Some _ when Filename.check_suffix base "_EL1" ->
       String.sub base 0 (String.length base - 1) ^ "12"
     | _ -> base ^ "(EL12)")
  | EL02 ->
    let base = name reg in
    if Filename.check_suffix base "_EL0" then
      String.sub base 0 (String.length base - 1) ^ "02"
    else base ^ "(EL02)"

(* Encoding of the VHE alias forms: _EL12/_EL02 registers use op1=5.  A
   direct access's encoding is its register's tuple, shared with the
   table, so encoding it allocates nothing. *)
let access_enc { reg; alias } =
  match alias with
  | Direct -> enc reg
  | EL12 | EL02 ->
    let (op0, _, crn, crm, op2) = enc reg in
    (op0, 5, crn, crm, op2)

(* The GIC hypervisor control interface (the ICH_* registers) occupies
   op0=3, op1=4, CRn=12, CRm=8..13. *)
let is_gic_ich r =
  let op0, op1, crn, crm, _ = enc r in
  op0 = 3 && op1 = 4 && crn = 12 && crm >= 8

let is_el2_timer r =
  match neve_class r with NV_timer_trap -> true | _ -> false

(* Read-only registers: writes are UNDEFINED / ignored.  Guest MSRs ask
   on every write, so membership is a by-index flag.
   domain-safety: allowlisted global — populated at module load,
   read-only afterwards. *)
let read_only_flags =
  let b = Bytes.make count '\000' in
  List.iter
    (fun r -> Bytes.set b (index r) '\001')
    [ MPIDR_EL1; MIDR_EL1; CurrentEL; CNTVCT_EL0; ICC_IAR1_EL1; ICH_VTR_EL2;
      ICH_MISR_EL2; ICH_EISR_EL2; ICH_ELRSR_EL2 ];
  b

let read_only r =
  in_range r && Bytes.unsafe_get read_only_flags (index r) = '\001'

(* Access records, one per (register, alias), built once: hypervisor code
   names accesses on every world switch, and an access is immutable, so
   handing out a shared record is unobservable.
   domain-safety: allowlisted global — read-only after module load. *)
let accesses alias =
  Array.init count (fun i -> { reg = of_index i; alias })
let direct_tbl = accesses Direct
let el12_tbl = accesses EL12
let el02_tbl = accesses EL02

(* The shared record for a register of the model, a fresh one for an
   out-of-range parameterized register. *)
let shared_access tbl reg alias =
  if in_range reg then Array.unsafe_get tbl (index reg) else { reg; alias }

let direct reg = shared_access direct_tbl reg Direct
let el12 reg = shared_access el12_tbl reg EL12
let el02 reg = shared_access el02_tbl reg EL02

(* --- Reverse encoding lookup ---

   An encoding packed into 16 bits, in the order (and at the position,
   shifted down 5) of the MRS/MSR instruction's system-register field:
   the key trapped-access syndromes and instruction words are decoded
   by.  Out-of-range fields pack to -1, which names nothing. *)
let code_of_enc (op0, op1, crn, crm, op2) =
  if op0 lor 0x3 <> 0x3 || op1 lor 0x7 <> 0x7 || crn lor 0xf <> 0xf
     || crm lor 0xf <> 0xf || op2 lor 0x7 <> 0x7
  then -1
  else (op0 lsl 14) lor (op1 lsl 11) lor (crn lsl 7) lor (crm lsl 3) lor op2

(* Every code that names an access, mapped to its shared [Some access]:
   an open-addressed table with linear probing, filled at module load
   and never written again, so a lookup is exact and allocates nothing.
   A register's own encoding names it directly; an op1=5 encoding that
   is no register's own names the [_EL12] alias of the op1=0 register
   with the same remaining fields, else the [_EL02] alias of the op1=3
   one (the order the table is filled in, first entry wins). *)
type code_table = { keys : int array; vals : access option array }

let code_slots = 1024

let rec code_slot keys c i =
  let k = Array.unsafe_get keys i in
  if k = c || k < 0 then i else code_slot keys c ((i + 1) land (code_slots - 1))

let[@inline] code_home c = ((c * 0x9E3779B1) lsr 16) land (code_slots - 1)

(* domain-safety: allowlisted global — populated at module load,
   read-only afterwards. *)
let codes =
  let t = { keys = Array.make code_slots (-1); vals = Array.make code_slots None } in
  let add c a =
    let i = code_slot t.keys c (code_home c) in
    if t.keys.(i) < 0 then begin
      t.keys.(i) <- c;
      t.vals.(i) <- Some a
    end
  in
  List.iter (fun (r, _, e, _, _) -> add (code_of_enc e) (direct r)) rows;
  List.iter
    (fun (alias, op1, tbl) ->
      List.iter
        (fun (r, _, (op0, op1', crn, crm, op2), _, _) ->
          if op1' = op1 then
            add (code_of_enc (op0, 5, crn, crm, op2)) (shared_access tbl r alias))
        rows)
    [ (EL12, 0, el12_tbl); (EL02, 3, el02_tbl) ];
  t

let access_of_code c =
  if c < 0 || c > 0xffff then None
  else Array.unsafe_get codes.vals (code_slot codes.keys c (code_home c))

let access_of_enc e = access_of_code (code_of_enc e)

let of_enc e =
  match access_of_enc e with
  | Some { reg; alias = Direct } -> Some reg
  | Some _ | None -> None

(* --- Deferred-access-page layout ---

   Every register with NEVE memory semantics (Table 3 deferral, Table 4/5
   cached copies, PMU deferral) gets a unique 8-byte slot.  Offsets start at
   0x010, leaving the first word free as a software header, mirroring the
   spirit (not the letter) of the published VNCR layout. *)

(* EL1 context registers outside Table 3 that NV2 also defers; the paper
   folds these under "further details are omitted due to space constraints"
   (Section 6.1).  Without deferring them, a non-VHE guest hypervisor's
   world switch would keep trapping on them and NEVE's trap reduction could
   not reach the levels of Table 7. *)
let nv2_extra_deferred =
  [ ACTLR_EL1; PAR_EL1; TPIDR_EL1; CSSELR_EL1; CNTKCTL_EL1;
    PMINTENSET_EL1; PMINTENCLR_EL1 ]
  @ List.concat
      (List.init debug_bkpts (fun n ->
           [ DBGBVR_EL1 n; DBGBCR_EL1 n; DBGWVR_EL1 n; DBGWCR_EL1 n ]))

let has_page_slot r =
  match neve_class r with
  | NV_vm_reg | NV_trap_on_write | NV_redirect_or_trap _ -> true
  | NV_redirect _ | NV_redirect_vhe _ | NV_timer_trap -> false
  | NV_none -> List.mem r nv2_extra_deferred

let vncr_layout : t list = List.filter has_page_slot all

(* Dense-index-keyed offset table: -1 marks "no slot" so the hot lookup is
   one array load and a compare, no hashing or option allocation. *)
(* domain-safety: allowlisted global — populated at module load,
   read-only afterwards. *)
let vncr_offset_tbl : int array =
  let tbl = Array.make count (-1) in
  List.iteri (fun i r -> tbl.(index r) <- 0x010 + (8 * i)) vncr_layout;
  tbl

(* A banked member the model does not implement has no slot: [index]
   would alias it onto a neighbour's. *)
let vncr_slot r =
  if in_range r then Array.unsafe_get vncr_offset_tbl (index r) else -1

let vncr_offset r = match vncr_slot r with -1 -> None | off -> Some off
let has_vncr_offset r = vncr_slot r >= 0

let page_size = 4096

(* --- The paper's tables, as data, for tests and documentation --- *)

let table3_vm_trap_control =
  [ HACR_EL2; HCR_EL2; HPFAR_EL2; HSTR_EL2; TPIDR_EL2; VMPIDR_EL2; VNCR_EL2;
    VPIDR_EL2; VTCR_EL2; VTTBR_EL2 ]

let table3_vm_execution_control =
  [ AFSR0_EL1; AFSR1_EL1; AMAIR_EL1; CONTEXTIDR_EL1; CPACR_EL1; ELR_EL1;
    ESR_EL1; FAR_EL1; MAIR_EL1; SCTLR_EL1; SP_EL1; SPSR_EL1; TCR_EL1;
    TTBR0_EL1; TTBR1_EL1; VBAR_EL1 ]

(* The paper's Table 3 lists TPIDR_EL2 twice (once under "VM Trap Control",
   once under "Thread ID") and counts 27 rows; the distinct register set has
   26 members. *)
let table3 = table3_vm_trap_control @ table3_vm_execution_control

let table4_redirect =
  [ AFSR0_EL2; AFSR1_EL2; AMAIR_EL2; ELR_EL2; ESR_EL2; FAR_EL2; SPSR_EL2;
    MAIR_EL2; SCTLR_EL2; VBAR_EL2 ]

let table4_redirect_vhe = [ CONTEXTIDR_EL2; TTBR1_EL2 ]
let table4_trap_on_write = [ CNTHCTL_EL2; CNTVOFF_EL2; CPTR_EL2; MDCR_EL2 ]
let table4_redirect_or_trap = [ TCR_EL2; TTBR0_EL2 ]

let table4 =
  table4_redirect @ table4_redirect_vhe @ table4_trap_on_write
  @ table4_redirect_or_trap

let table5 =
  [ ICH_HCR_EL2; ICH_VTR_EL2; ICH_VMCR_EL2; ICH_MISR_EL2; ICH_EISR_EL2;
    ICH_ELRSR_EL2 ]
  @ List.init apr_count (fun n -> ICH_AP0R_EL2 n)
  @ List.init apr_count (fun n -> ICH_AP1R_EL2 n)
  @ List.init lr_count (fun n -> ICH_LR_EL2 n)

let pp ppf r = Fmt.string ppf (name r)
