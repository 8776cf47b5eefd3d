(* The system-register database.

   Every register the simulator models, with its A64 encoding
   (op0, op1, CRn, CRm, op2), the minimum exception level that may access it
   directly, and its NEVE classification from Tables 3, 4 and 5 of the paper.

   Deferred-access-page offsets are synthetic (stable, unique, 8-byte
   aligned); the paper leaves the layout to the architecture as long as every
   register has a well-defined offset from VNCR_EL2.BADDR (Section 6.1). *)

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

let name = function
  | SP_EL0 -> "SP_EL0"
  | TPIDR_EL0 -> "TPIDR_EL0"
  | TPIDRRO_EL0 -> "TPIDRRO_EL0"
  | CNTV_CTL_EL0 -> "CNTV_CTL_EL0"
  | CNTV_CVAL_EL0 -> "CNTV_CVAL_EL0"
  | CNTP_CTL_EL0 -> "CNTP_CTL_EL0"
  | CNTP_CVAL_EL0 -> "CNTP_CVAL_EL0"
  | CNTVCT_EL0 -> "CNTVCT_EL0"
  | CNTFRQ_EL0 -> "CNTFRQ_EL0"
  | PMUSERENR_EL0 -> "PMUSERENR_EL0"
  | PMSELR_EL0 -> "PMSELR_EL0"
  | PMCR_EL0 -> "PMCR_EL0"
  | PMCNTENSET_EL0 -> "PMCNTENSET_EL0"
  | PMCNTENCLR_EL0 -> "PMCNTENCLR_EL0"
  | PMOVSCLR_EL0 -> "PMOVSCLR_EL0"
  | PMCCNTR_EL0 -> "PMCCNTR_EL0"
  | PMCCFILTR_EL0 -> "PMCCFILTR_EL0"
  | PMEVCNTR_EL0 n -> Printf.sprintf "PMEVCNTR%d_EL0" n
  | PMEVTYPER_EL0 n -> Printf.sprintf "PMEVTYPER%d_EL0" n
  | PMINTENSET_EL1 -> "PMINTENSET_EL1"
  | PMINTENCLR_EL1 -> "PMINTENCLR_EL1"
  | DBGBVR_EL1 n -> Printf.sprintf "DBGBVR%d_EL1" n
  | DBGBCR_EL1 n -> Printf.sprintf "DBGBCR%d_EL1" n
  | DBGWVR_EL1 n -> Printf.sprintf "DBGWVR%d_EL1" n
  | DBGWCR_EL1 n -> Printf.sprintf "DBGWCR%d_EL1" n
  | SCTLR_EL1 -> "SCTLR_EL1"
  | ACTLR_EL1 -> "ACTLR_EL1"
  | CPACR_EL1 -> "CPACR_EL1"
  | TTBR0_EL1 -> "TTBR0_EL1"
  | TTBR1_EL1 -> "TTBR1_EL1"
  | TCR_EL1 -> "TCR_EL1"
  | ESR_EL1 -> "ESR_EL1"
  | FAR_EL1 -> "FAR_EL1"
  | AFSR0_EL1 -> "AFSR0_EL1"
  | AFSR1_EL1 -> "AFSR1_EL1"
  | MAIR_EL1 -> "MAIR_EL1"
  | AMAIR_EL1 -> "AMAIR_EL1"
  | CONTEXTIDR_EL1 -> "CONTEXTIDR_EL1"
  | VBAR_EL1 -> "VBAR_EL1"
  | ELR_EL1 -> "ELR_EL1"
  | SPSR_EL1 -> "SPSR_EL1"
  | SP_EL1 -> "SP_EL1"
  | PAR_EL1 -> "PAR_EL1"
  | TPIDR_EL1 -> "TPIDR_EL1"
  | CSSELR_EL1 -> "CSSELR_EL1"
  | CNTKCTL_EL1 -> "CNTKCTL_EL1"
  | MDSCR_EL1 -> "MDSCR_EL1"
  | MPIDR_EL1 -> "MPIDR_EL1"
  | MIDR_EL1 -> "MIDR_EL1"
  | CurrentEL -> "CurrentEL"
  | ICC_PMR_EL1 -> "ICC_PMR_EL1"
  | ICC_IAR1_EL1 -> "ICC_IAR1_EL1"
  | ICC_EOIR1_EL1 -> "ICC_EOIR1_EL1"
  | ICC_DIR_EL1 -> "ICC_DIR_EL1"
  | ICC_BPR1_EL1 -> "ICC_BPR1_EL1"
  | ICC_CTLR_EL1 -> "ICC_CTLR_EL1"
  | ICC_SGI1R_EL1 -> "ICC_SGI1R_EL1"
  | ICC_IGRPEN1_EL1 -> "ICC_IGRPEN1_EL1"
  | HCR_EL2 -> "HCR_EL2"
  | HACR_EL2 -> "HACR_EL2"
  | HSTR_EL2 -> "HSTR_EL2"
  | HPFAR_EL2 -> "HPFAR_EL2"
  | TPIDR_EL2 -> "TPIDR_EL2"
  | VPIDR_EL2 -> "VPIDR_EL2"
  | VMPIDR_EL2 -> "VMPIDR_EL2"
  | VTCR_EL2 -> "VTCR_EL2"
  | VTTBR_EL2 -> "VTTBR_EL2"
  | VNCR_EL2 -> "VNCR_EL2"
  | SCTLR_EL2 -> "SCTLR_EL2"
  | ACTLR_EL2 -> "ACTLR_EL2"
  | TTBR0_EL2 -> "TTBR0_EL2"
  | TTBR1_EL2 -> "TTBR1_EL2"
  | TCR_EL2 -> "TCR_EL2"
  | ESR_EL2 -> "ESR_EL2"
  | FAR_EL2 -> "FAR_EL2"
  | AFSR0_EL2 -> "AFSR0_EL2"
  | AFSR1_EL2 -> "AFSR1_EL2"
  | MAIR_EL2 -> "MAIR_EL2"
  | AMAIR_EL2 -> "AMAIR_EL2"
  | CONTEXTIDR_EL2 -> "CONTEXTIDR_EL2"
  | VBAR_EL2 -> "VBAR_EL2"
  | ELR_EL2 -> "ELR_EL2"
  | SPSR_EL2 -> "SPSR_EL2"
  | SP_EL2 -> "SP_EL2"
  | CPTR_EL2 -> "CPTR_EL2"
  | MDCR_EL2 -> "MDCR_EL2"
  | CNTHCTL_EL2 -> "CNTHCTL_EL2"
  | CNTVOFF_EL2 -> "CNTVOFF_EL2"
  | CNTHP_CTL_EL2 -> "CNTHP_CTL_EL2"
  | CNTHP_CVAL_EL2 -> "CNTHP_CVAL_EL2"
  | CNTHV_CTL_EL2 -> "CNTHV_CTL_EL2"
  | CNTHV_CVAL_EL2 -> "CNTHV_CVAL_EL2"
  | ICH_HCR_EL2 -> "ICH_HCR_EL2"
  | ICH_VTR_EL2 -> "ICH_VTR_EL2"
  | ICH_VMCR_EL2 -> "ICH_VMCR_EL2"
  | ICH_MISR_EL2 -> "ICH_MISR_EL2"
  | ICH_EISR_EL2 -> "ICH_EISR_EL2"
  | ICH_ELRSR_EL2 -> "ICH_ELRSR_EL2"
  | ICH_AP0R_EL2 n -> Printf.sprintf "ICH_AP0R%d_EL2" n
  | ICH_AP1R_EL2 n -> Printf.sprintf "ICH_AP1R%d_EL2" n
  | ICH_LR_EL2 n -> Printf.sprintf "ICH_LR%d_EL2" n
  | VSESR_EL2 -> "VSESR_EL2"
  | VDISR_EL2 -> "VDISR_EL2"

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

(* A64 system-register encodings per the ARM Architecture Reference Manual.
   MDSCR_EL1 uses op0=2 (debug); everything else modeled here uses op0=3. *)
let enc = function
  | SP_EL0 -> (3, 0, 4, 1, 0)
  | TPIDR_EL0 -> (3, 3, 13, 0, 2)
  | TPIDRRO_EL0 -> (3, 3, 13, 0, 3)
  | CNTV_CTL_EL0 -> (3, 3, 14, 3, 1)
  | CNTV_CVAL_EL0 -> (3, 3, 14, 3, 2)
  | CNTP_CTL_EL0 -> (3, 3, 14, 2, 1)
  | CNTP_CVAL_EL0 -> (3, 3, 14, 2, 2)
  | CNTVCT_EL0 -> (3, 3, 14, 0, 2)
  | CNTFRQ_EL0 -> (3, 3, 14, 0, 0)
  | PMUSERENR_EL0 -> (3, 3, 9, 14, 0)
  | PMSELR_EL0 -> (3, 3, 9, 12, 5)
  | PMCR_EL0 -> (3, 3, 9, 12, 0)
  | PMCNTENSET_EL0 -> (3, 3, 9, 12, 1)
  | PMCNTENCLR_EL0 -> (3, 3, 9, 12, 2)
  | PMOVSCLR_EL0 -> (3, 3, 9, 12, 3)
  | PMCCNTR_EL0 -> (3, 3, 9, 13, 0)
  | PMCCFILTR_EL0 -> (3, 3, 14, 15, 7)
  | PMEVCNTR_EL0 n -> (3, 3, 14, 8, n)
  | PMEVTYPER_EL0 n -> (3, 3, 14, 12, n)
  | PMINTENSET_EL1 -> (3, 0, 9, 14, 1)
  | PMINTENCLR_EL1 -> (3, 0, 9, 14, 2)
  | DBGBVR_EL1 n -> (2, 0, 0, n, 4)
  | DBGBCR_EL1 n -> (2, 0, 0, n, 5)
  | DBGWVR_EL1 n -> (2, 0, 0, n, 6)
  | DBGWCR_EL1 n -> (2, 0, 0, n, 7)
  | SCTLR_EL1 -> (3, 0, 1, 0, 0)
  | ACTLR_EL1 -> (3, 0, 1, 0, 1)
  | CPACR_EL1 -> (3, 0, 1, 0, 2)
  | TTBR0_EL1 -> (3, 0, 2, 0, 0)
  | TTBR1_EL1 -> (3, 0, 2, 0, 1)
  | TCR_EL1 -> (3, 0, 2, 0, 2)
  | ESR_EL1 -> (3, 0, 5, 2, 0)
  | FAR_EL1 -> (3, 0, 6, 0, 0)
  | AFSR0_EL1 -> (3, 0, 5, 1, 0)
  | AFSR1_EL1 -> (3, 0, 5, 1, 1)
  | MAIR_EL1 -> (3, 0, 10, 2, 0)
  | AMAIR_EL1 -> (3, 0, 10, 3, 0)
  | CONTEXTIDR_EL1 -> (3, 0, 13, 0, 1)
  | VBAR_EL1 -> (3, 0, 12, 0, 0)
  | ELR_EL1 -> (3, 0, 4, 0, 1)
  | SPSR_EL1 -> (3, 0, 4, 0, 0)
  | SP_EL1 -> (3, 4, 4, 1, 0)
  | PAR_EL1 -> (3, 0, 7, 4, 0)
  | TPIDR_EL1 -> (3, 0, 13, 0, 4)
  | CSSELR_EL1 -> (3, 2, 0, 0, 0)
  | CNTKCTL_EL1 -> (3, 0, 14, 1, 0)
  | MDSCR_EL1 -> (2, 0, 0, 2, 2)
  | MPIDR_EL1 -> (3, 0, 0, 0, 5)
  | MIDR_EL1 -> (3, 0, 0, 0, 0)
  | CurrentEL -> (3, 0, 4, 2, 2)
  | ICC_PMR_EL1 -> (3, 0, 4, 6, 0)
  | ICC_IAR1_EL1 -> (3, 0, 12, 12, 0)
  | ICC_EOIR1_EL1 -> (3, 0, 12, 12, 1)
  | ICC_DIR_EL1 -> (3, 0, 12, 11, 1)
  | ICC_BPR1_EL1 -> (3, 0, 12, 12, 3)
  | ICC_CTLR_EL1 -> (3, 0, 12, 12, 4)
  | ICC_SGI1R_EL1 -> (3, 0, 12, 11, 5)
  | ICC_IGRPEN1_EL1 -> (3, 0, 12, 12, 7)
  | HCR_EL2 -> (3, 4, 1, 1, 0)
  | HACR_EL2 -> (3, 4, 1, 1, 7)
  | HSTR_EL2 -> (3, 4, 1, 1, 3)
  | HPFAR_EL2 -> (3, 4, 6, 0, 4)
  | TPIDR_EL2 -> (3, 4, 13, 0, 2)
  | VPIDR_EL2 -> (3, 4, 0, 0, 0)
  | VMPIDR_EL2 -> (3, 4, 0, 0, 5)
  | VTCR_EL2 -> (3, 4, 2, 1, 2)
  | VTTBR_EL2 -> (3, 4, 2, 1, 0)
  | VNCR_EL2 -> (3, 4, 2, 2, 0)
  | SCTLR_EL2 -> (3, 4, 1, 0, 0)
  | ACTLR_EL2 -> (3, 4, 1, 0, 1)
  | TTBR0_EL2 -> (3, 4, 2, 0, 0)
  | TTBR1_EL2 -> (3, 4, 2, 0, 1)
  | TCR_EL2 -> (3, 4, 2, 0, 2)
  | ESR_EL2 -> (3, 4, 5, 2, 0)
  | FAR_EL2 -> (3, 4, 6, 0, 0)
  | AFSR0_EL2 -> (3, 4, 5, 1, 0)
  | AFSR1_EL2 -> (3, 4, 5, 1, 1)
  | MAIR_EL2 -> (3, 4, 10, 2, 0)
  | AMAIR_EL2 -> (3, 4, 10, 3, 0)
  | CONTEXTIDR_EL2 -> (3, 4, 13, 0, 1)
  | VBAR_EL2 -> (3, 4, 12, 0, 0)
  | ELR_EL2 -> (3, 4, 4, 0, 1)
  | SPSR_EL2 -> (3, 4, 4, 0, 0)
  | SP_EL2 -> (3, 6, 4, 1, 0)
  | CPTR_EL2 -> (3, 4, 1, 1, 2)
  | MDCR_EL2 -> (3, 4, 1, 1, 1)
  | CNTHCTL_EL2 -> (3, 4, 14, 1, 0)
  | CNTVOFF_EL2 -> (3, 4, 14, 0, 3)
  | CNTHP_CTL_EL2 -> (3, 4, 14, 2, 1)
  | CNTHP_CVAL_EL2 -> (3, 4, 14, 2, 2)
  | CNTHV_CTL_EL2 -> (3, 4, 14, 3, 1)
  | CNTHV_CVAL_EL2 -> (3, 4, 14, 3, 2)
  | ICH_HCR_EL2 -> (3, 4, 12, 11, 0)
  | ICH_VTR_EL2 -> (3, 4, 12, 11, 1)
  | ICH_VMCR_EL2 -> (3, 4, 12, 11, 7)
  | ICH_MISR_EL2 -> (3, 4, 12, 11, 2)
  | ICH_EISR_EL2 -> (3, 4, 12, 11, 3)
  | ICH_ELRSR_EL2 -> (3, 4, 12, 11, 5)
  | ICH_AP0R_EL2 n -> (3, 4, 12, 8, n)
  | ICH_AP1R_EL2 n -> (3, 4, 12, 9, n)
  | ICH_LR_EL2 n -> if n < 8 then (3, 4, 12, 12, n) else (3, 4, 12, 13, n - 8)
  | VSESR_EL2 -> (3, 4, 5, 2, 3)
  | VDISR_EL2 -> (3, 4, 12, 1, 1)

(* Encoding of the VHE alias forms: _EL12/_EL02 registers use op1=5. *)
let access_enc { reg; alias } =
  let (op0, op1, crn, crm, op2) = enc reg in
  match alias with
  | Direct -> (op0, op1, crn, crm, op2)
  | EL12 | EL02 -> (op0, 5, crn, crm, op2)

(* Lowest exception level that can access the register without trapping on a
   machine with no virtualization trapping configured. *)
let min_el = function
  | SP_EL0 | TPIDR_EL0 | TPIDRRO_EL0 | CNTV_CTL_EL0 | CNTV_CVAL_EL0
  | CNTP_CTL_EL0 | CNTP_CVAL_EL0 | CNTVCT_EL0 | CNTFRQ_EL0 | PMUSERENR_EL0
  | PMSELR_EL0 | PMCR_EL0 | PMCNTENSET_EL0 | PMCNTENCLR_EL0 | PMOVSCLR_EL0
  | PMCCNTR_EL0 | PMCCFILTR_EL0 | PMEVCNTR_EL0 _ | PMEVTYPER_EL0 _ ->
    Pstate.EL0
  | SCTLR_EL1 | ACTLR_EL1 | CPACR_EL1 | TTBR0_EL1 | TTBR1_EL1 | TCR_EL1
  | ESR_EL1 | FAR_EL1 | AFSR0_EL1 | AFSR1_EL1 | MAIR_EL1 | AMAIR_EL1
  | CONTEXTIDR_EL1 | VBAR_EL1 | ELR_EL1 | SPSR_EL1 | PAR_EL1
  | TPIDR_EL1 | CSSELR_EL1 | CNTKCTL_EL1 | MDSCR_EL1 | MPIDR_EL1 | MIDR_EL1
  | CurrentEL | ICC_PMR_EL1 | ICC_IAR1_EL1 | ICC_EOIR1_EL1 | ICC_DIR_EL1
  | ICC_BPR1_EL1 | ICC_CTLR_EL1 | ICC_SGI1R_EL1 | ICC_IGRPEN1_EL1
  | PMINTENSET_EL1 | PMINTENCLR_EL1 | DBGBVR_EL1 _ | DBGBCR_EL1 _
  | DBGWVR_EL1 _ | DBGWCR_EL1 _ ->
    Pstate.EL1
  (* The explicit SP_EL1 system-register encoding (op1=4) is an EL2
     instruction: at EL1 the banked stack pointer is just SP. *)
  | SP_EL1 -> Pstate.EL2
  | HCR_EL2 | HACR_EL2 | HSTR_EL2 | HPFAR_EL2 | TPIDR_EL2 | VPIDR_EL2
  | VMPIDR_EL2 | VTCR_EL2 | VTTBR_EL2 | VNCR_EL2 | SCTLR_EL2 | ACTLR_EL2
  | TTBR0_EL2 | TTBR1_EL2 | TCR_EL2 | ESR_EL2 | FAR_EL2 | AFSR0_EL2
  | AFSR1_EL2 | MAIR_EL2 | AMAIR_EL2 | CONTEXTIDR_EL2 | VBAR_EL2 | ELR_EL2
  | SPSR_EL2 | SP_EL2 | CPTR_EL2 | MDCR_EL2 | CNTHCTL_EL2 | CNTVOFF_EL2
  | CNTHP_CTL_EL2 | CNTHP_CVAL_EL2 | CNTHV_CTL_EL2 | CNTHV_CVAL_EL2
  | ICH_HCR_EL2 | ICH_VTR_EL2 | ICH_VMCR_EL2 | ICH_MISR_EL2 | ICH_EISR_EL2
  | ICH_ELRSR_EL2 | ICH_AP0R_EL2 _ | ICH_AP1R_EL2 _ | ICH_LR_EL2 _
  | VSESR_EL2 | VDISR_EL2 ->
    Pstate.EL2

(* Registers that only exist once VHE (ARMv8.1) is implemented. *)
let requires_vhe = function
  | TTBR1_EL2 | CONTEXTIDR_EL2 | CNTHV_CTL_EL2 | CNTHV_CVAL_EL2 -> true
  | _ -> false

(* Registers that only exist once NV2 (ARMv8.4) is implemented. *)
let requires_nv2 = function VNCR_EL2 -> true | _ -> false

let is_gic_ich = function
  | ICH_HCR_EL2 | ICH_VTR_EL2 | ICH_VMCR_EL2 | ICH_MISR_EL2 | ICH_EISR_EL2
  | ICH_ELRSR_EL2 | ICH_AP0R_EL2 _ | ICH_AP1R_EL2 _ | ICH_LR_EL2 _ ->
    true
  | _ -> false

let is_el2_timer = function
  | CNTHP_CTL_EL2 | CNTHP_CVAL_EL2 | CNTHV_CTL_EL2 | CNTHV_CVAL_EL2 -> true
  | _ -> false

(* Read-only registers: writes are UNDEFINED / ignored. *)
let read_only = function
  | MPIDR_EL1 | MIDR_EL1 | CurrentEL | CNTVCT_EL0 | ICC_IAR1_EL1
  | ICH_VTR_EL2 | ICH_MISR_EL2 | ICH_EISR_EL2 | ICH_ELRSR_EL2 ->
    true
  | _ -> false

(* --- NEVE classification (Tables 3, 4, 5 plus the PMU/debug/timer notes at
   the end of Section 6.1) --- *)

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

let neve_class = function
  (* Table 3, "VM Trap Control" group (EL2 registers whose only effect is on
     the VM, not on the guest hypervisor's own execution). *)
  | HACR_EL2 | HCR_EL2 | HPFAR_EL2 | HSTR_EL2 | TPIDR_EL2 | VMPIDR_EL2
  | VNCR_EL2 | VPIDR_EL2 | VTCR_EL2 | VTTBR_EL2 ->
    NV_vm_reg
  (* Table 3, "VM Execution Control" group (the VM's own EL1 state). *)
  | AFSR0_EL1 | AFSR1_EL1 | AMAIR_EL1 | CONTEXTIDR_EL1 | CPACR_EL1 | ELR_EL1
  | ESR_EL1 | FAR_EL1 | MAIR_EL1 | SCTLR_EL1 | SP_EL1 | SPSR_EL1 | TCR_EL1
  | TTBR0_EL1 | TTBR1_EL1 | VBAR_EL1 ->
    NV_vm_reg
  (* Section 6.1: PMU control registers treated like VM registers. *)
  | PMUSERENR_EL0 | PMSELR_EL0 -> NV_vm_reg
  (* Section 6.1: debug control register: cached read, trap on write. *)
  | MDSCR_EL1 -> NV_trap_on_write
  (* Table 4, "Redirect to *_EL1". *)
  | AFSR0_EL2 -> NV_redirect AFSR0_EL1
  | AFSR1_EL2 -> NV_redirect AFSR1_EL1
  | AMAIR_EL2 -> NV_redirect AMAIR_EL1
  | ELR_EL2 -> NV_redirect ELR_EL1
  | ESR_EL2 -> NV_redirect ESR_EL1
  | FAR_EL2 -> NV_redirect FAR_EL1
  | SPSR_EL2 -> NV_redirect SPSR_EL1
  | MAIR_EL2 -> NV_redirect MAIR_EL1
  | SCTLR_EL2 -> NV_redirect SCTLR_EL1
  | VBAR_EL2 -> NV_redirect VBAR_EL1
  (* Table 4, "Redirect to *_EL1 (VHE)". *)
  | CONTEXTIDR_EL2 -> NV_redirect_vhe CONTEXTIDR_EL1
  | TTBR1_EL2 -> NV_redirect_vhe TTBR1_EL1
  (* Table 4, "Trap on write". *)
  | CNTHCTL_EL2 | CNTVOFF_EL2 | CPTR_EL2 | MDCR_EL2 -> NV_trap_on_write
  (* Table 4, "Redirect or trap". *)
  | TCR_EL2 -> NV_redirect_or_trap TCR_EL1
  | TTBR0_EL2 -> NV_redirect_or_trap TTBR0_EL1
  (* Table 5: every GIC hypervisor-control register. *)
  | ICH_HCR_EL2 | ICH_VTR_EL2 | ICH_VMCR_EL2 | ICH_MISR_EL2 | ICH_EISR_EL2
  | ICH_ELRSR_EL2 | ICH_AP0R_EL2 _ | ICH_AP1R_EL2 _ | ICH_LR_EL2 _ ->
    NV_trap_on_write
  (* Section 6.1: EL2 timer registers always trap. *)
  | CNTHP_CTL_EL2 | CNTHP_CVAL_EL2 | CNTHV_CTL_EL2 | CNTHV_CVAL_EL2 ->
    NV_timer_trap
  (* Everything else is outside NEVE's scope. *)
  | SP_EL0 | TPIDR_EL0 | TPIDRRO_EL0 | CNTV_CTL_EL0 | CNTV_CVAL_EL0
  | CNTP_CTL_EL0 | CNTP_CVAL_EL0 | CNTVCT_EL0 | CNTFRQ_EL0 | ACTLR_EL1
  | PAR_EL1 | TPIDR_EL1 | CSSELR_EL1 | CNTKCTL_EL1 | MPIDR_EL1 | MIDR_EL1
  | CurrentEL | ICC_PMR_EL1 | ICC_IAR1_EL1 | ICC_EOIR1_EL1 | ICC_DIR_EL1
  | ICC_BPR1_EL1 | ICC_CTLR_EL1 | ICC_SGI1R_EL1 | ICC_IGRPEN1_EL1
  | ACTLR_EL2 | SP_EL2
  | PMCR_EL0 | PMCNTENSET_EL0 | PMCNTENCLR_EL0 | PMOVSCLR_EL0 | PMCCNTR_EL0
  | PMCCFILTR_EL0 | PMEVCNTR_EL0 _ | PMEVTYPER_EL0 _
  | PMINTENSET_EL1 | PMINTENCLR_EL1
  | DBGBVR_EL1 _ | DBGBCR_EL1 _ | DBGWVR_EL1 _ | DBGWCR_EL1 _
  (* RAS syndrome registers: kept outside the deferred page (the modeled
     hardware has FEAT_RAS but not the NV2 RAS-page extension), so both
     ARMv8.3 and NEVE guest hypervisors trap on them identically. *)
  | VSESR_EL2 | VDISR_EL2 ->
    NV_none

(* --- The register universe --- *)

let rec range_regs f n acc = if n < 0 then acc else range_regs f (n - 1) (f n :: acc)

let all : t list =
  [
    SP_EL0; TPIDR_EL0; TPIDRRO_EL0; CNTV_CTL_EL0; CNTV_CVAL_EL0;
    CNTP_CTL_EL0; CNTP_CVAL_EL0; CNTVCT_EL0; CNTFRQ_EL0; PMUSERENR_EL0;
    PMSELR_EL0; SCTLR_EL1; ACTLR_EL1; CPACR_EL1; TTBR0_EL1; TTBR1_EL1;
    TCR_EL1; ESR_EL1; FAR_EL1; AFSR0_EL1; AFSR1_EL1; MAIR_EL1; AMAIR_EL1;
    CONTEXTIDR_EL1; VBAR_EL1; ELR_EL1; SPSR_EL1; SP_EL1; PAR_EL1; TPIDR_EL1;
    CSSELR_EL1; CNTKCTL_EL1; MDSCR_EL1; MPIDR_EL1; MIDR_EL1; CurrentEL;
    ICC_PMR_EL1; ICC_IAR1_EL1; ICC_EOIR1_EL1; ICC_DIR_EL1; ICC_BPR1_EL1;
    ICC_CTLR_EL1; ICC_SGI1R_EL1; ICC_IGRPEN1_EL1; HCR_EL2; HACR_EL2;
    HSTR_EL2; HPFAR_EL2; TPIDR_EL2; VPIDR_EL2; VMPIDR_EL2; VTCR_EL2;
    VTTBR_EL2; VNCR_EL2; SCTLR_EL2; ACTLR_EL2; TTBR0_EL2; TTBR1_EL2;
    TCR_EL2; ESR_EL2; FAR_EL2; AFSR0_EL2; AFSR1_EL2; MAIR_EL2; AMAIR_EL2;
    CONTEXTIDR_EL2; VBAR_EL2; ELR_EL2; SPSR_EL2; SP_EL2; CPTR_EL2; MDCR_EL2;
    CNTHCTL_EL2; CNTVOFF_EL2; CNTHP_CTL_EL2; CNTHP_CVAL_EL2; CNTHV_CTL_EL2;
    CNTHV_CVAL_EL2; ICH_HCR_EL2; ICH_VTR_EL2; ICH_VMCR_EL2; ICH_MISR_EL2;
    ICH_EISR_EL2; ICH_ELRSR_EL2;
  ]
  @ [ PMCR_EL0; PMCNTENSET_EL0; PMCNTENCLR_EL0; PMOVSCLR_EL0; PMCCNTR_EL0;
      PMCCFILTR_EL0; PMINTENSET_EL1; PMINTENCLR_EL1 ]
  @ range_regs (fun n -> PMEVCNTR_EL0 n) (pmu_counters - 1) []
  @ range_regs (fun n -> PMEVTYPER_EL0 n) (pmu_counters - 1) []
  @ range_regs (fun n -> DBGBVR_EL1 n) (debug_bkpts - 1) []
  @ range_regs (fun n -> DBGBCR_EL1 n) (debug_bkpts - 1) []
  @ range_regs (fun n -> DBGWVR_EL1 n) (debug_bkpts - 1) []
  @ range_regs (fun n -> DBGWCR_EL1 n) (debug_bkpts - 1) []
  @ range_regs (fun n -> ICH_AP0R_EL2 n) (apr_count - 1) []
  @ range_regs (fun n -> ICH_AP1R_EL2 n) (apr_count - 1) []
  @ range_regs (fun n -> ICH_LR_EL2 n) (lr_count - 1) []
  @ [ VSESR_EL2; VDISR_EL2 ]

(* Reverse encoding lookup (used when decoding trapped-access syndromes and
   when decoding 32-bit MSR/MRS words). *)
(* domain-safety: allowlisted global — the closed-over table is fully
   populated at module load and read-only afterwards. *)
let of_enc : (int * int * int * int * int) -> t option =
  let tbl = Hashtbl.create 128 in
  List.iter (fun r -> Hashtbl.replace tbl (enc r) r) all;
  fun e -> Hashtbl.find_opt tbl e

(* --- Dense integer index ---

   Every register identity maps to a unique index in [0, count): flat
   arrays keyed by [index] replace hashed lookups on the MSR/MRS hot
   path (register file, context-slot table, deferred-page offsets).
   The layout follows the constructor declaration order; banked
   registers occupy contiguous runs.  [of_index] and the bijectivity of
   the mapping over [all] are established at module init. *)

let count = 154

let index = function
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

(* domain-safety: allowlisted global — populated (and checked bijective)
   at module load, read-only afterwards. *)
let of_index_tbl : t array =
  let placeholder = SP_EL0 in
  let tbl = Array.make count placeholder in
  let seen = Array.make count false in
  List.iter
    (fun r ->
      let i = index r in
      if i < 0 || i >= count then
        invalid_arg ("Sysreg.index out of range for " ^ name r);
      if seen.(i) then
        invalid_arg ("Sysreg.index collision at " ^ name r);
      seen.(i) <- true;
      tbl.(i) <- r)
    all;
  Array.iteri
    (fun i present ->
      if not present then
        invalid_arg (Printf.sprintf "Sysreg.index: slot %d unassigned" i))
    seen;
  tbl

let of_index i =
  if i < 0 || i >= count then invalid_arg "Sysreg.of_index";
  of_index_tbl.(i)

(* Access records, one per (register, alias), built once: hypervisor code
   names accesses on every world switch, and an access is immutable, so
   handing out a shared record is unobservable.
   domain-safety: allowlisted global — read-only after module load. *)
let accesses alias =
  Array.init count (fun i -> { reg = of_index_tbl.(i); alias })
let direct_tbl = accesses Direct
let el12_tbl = accesses EL12
let el02_tbl = accesses EL02

(* Whether a parameterized register's number is one the model implements
   (the registers [index] numbers without aliasing a neighbour). *)
let in_range = function
  | PMEVCNTR_EL0 n | PMEVTYPER_EL0 n -> n >= 0 && n < pmu_counters
  | DBGBVR_EL1 n | DBGBCR_EL1 n | DBGWVR_EL1 n | DBGWCR_EL1 n ->
    n >= 0 && n < debug_bkpts
  | ICH_AP0R_EL2 n | ICH_AP1R_EL2 n -> n >= 0 && n < apr_count
  | ICH_LR_EL2 n -> n >= 0 && n < lr_count
  | _ -> true

(* The shared record for a register of the model, a fresh one for an
   out-of-range parameterized register. *)
let shared_access tbl reg alias =
  if in_range reg then Array.unsafe_get tbl (index reg) else { reg; alias }

let direct reg = shared_access direct_tbl reg Direct
let el12 reg = shared_access el12_tbl reg EL12
let el02 reg = shared_access el02_tbl reg EL02

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

let vncr_offset r =
  match vncr_offset_tbl.(index r) with -1 -> None | off -> Some off

let has_vncr_offset r = vncr_offset_tbl.(index r) >= 0

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
  @ range_regs (fun n -> ICH_AP0R_EL2 n) (apr_count - 1) []
  @ range_regs (fun n -> ICH_AP1R_EL2 n) (apr_count - 1) []
  @ range_regs (fun n -> ICH_LR_EL2 n) (lr_count - 1) []

let pp ppf r = Fmt.string ppf (name r)
let pp_access ppf a = Fmt.string ppf (access_name a)
