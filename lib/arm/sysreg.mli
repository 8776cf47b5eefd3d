(** The system-register database.

    Every register the simulator models, with its A64 encoding, minimum
    access level, NEVE classification (paper Tables 3, 4 and 5) and
    deferred-access-page offset.  The implementation states each register
    once, as one row of a table in {!all} order; every query here reads
    that row.  The classification is architectural data (it is what
    ARMv8.4 hardware implements), which is why it lives here rather than
    in the NEVE library; [Core.Classify] builds the software view on
    top. *)

(** Register identities.  Parameterized constructors cover the banked GIC
    list registers and active-priority registers. *)
type t =
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
  | PMCR_EL0
  | PMCNTENSET_EL0
  | PMCNTENCLR_EL0
  | PMOVSCLR_EL0
  | PMCCNTR_EL0
  | PMCCFILTR_EL0
  | PMEVCNTR_EL0 of int   (** n = 0..5 *)

  | PMEVTYPER_EL0 of int  (** n = 0..5 *)

  | PMINTENSET_EL1
  | PMINTENCLR_EL1
  | DBGBVR_EL1 of int     (** breakpoint value, n = 0..5 *)

  | DBGBCR_EL1 of int     (** breakpoint control *)

  | DBGWVR_EL1 of int     (** watchpoint value *)

  | DBGWCR_EL1 of int     (** watchpoint control *)

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
  | ICC_PMR_EL1
  | ICC_IAR1_EL1
  | ICC_EOIR1_EL1
  | ICC_DIR_EL1
  | ICC_BPR1_EL1
  | ICC_CTLR_EL1
  | ICC_SGI1R_EL1
  | ICC_IGRPEN1_EL1
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
  | TTBR1_EL2
  | TCR_EL2
  | ESR_EL2
  | FAR_EL2
  | AFSR0_EL2
  | AFSR1_EL2
  | MAIR_EL2
  | AMAIR_EL2
  | CONTEXTIDR_EL2
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
  | CNTHV_CTL_EL2
  | CNTHV_CVAL_EL2
  | ICH_HCR_EL2
  | ICH_VTR_EL2
  | ICH_VMCR_EL2
  | ICH_MISR_EL2
  | ICH_EISR_EL2
  | ICH_ELRSR_EL2
  | ICH_AP0R_EL2 of int  (** n = 0..3 *)

  | ICH_AP1R_EL2 of int  (** n = 0..3 *)

  | ICH_LR_EL2 of int    (** n = 0..15 *)

  | VSESR_EL2  (** FEAT_RAS: virtual SError syndrome (HCR_EL2.VSE payload) *)

  | VDISR_EL2  (** FEAT_RAS: deferred-error status record *)

(** How an access instruction names the register: directly, or through a
    VHE-added [_EL12]/[_EL02] alias (op1=5 encodings that reach EL1/EL0
    registers from EL2 when E2H redirection is active). *)
type alias = Direct | EL12 | EL02

type access = { reg : t; alias : alias }

val direct : t -> access
val el12 : t -> access
val el02 : t -> access

val lr_count : int   (** list registers implemented: 16 *)

val pmu_counters : int  (** PMU event counters implemented: 6 *)

val debug_bkpts : int   (** breakpoint/watchpoint pairs implemented: 6 *)

val in_range : t -> bool
(** Whether a banked register's number is one the model implements; true
    for every unparameterized register.  {!index} aliases a member past
    the implemented ones onto a neighbour, so per-register tables keyed
    by it must ask this first. *)

val name : t -> string
val access_name : access -> string

val enc : t -> int * int * int * int * int
(** A64 encoding (op0, op1, CRn, CRm, op2), per the ARM ARM. *)

val access_enc : access -> int * int * int * int * int
(** Encoding of the access form; alias forms use op1=5. *)

val min_el : t -> Pstate.el
(** Lowest exception level that can access the register directly when no
    virtualization trapping is configured. *)

val is_gic_ich : t -> bool
(** GIC hypervisor-control-interface registers (paper Table 5). *)

val is_el2_timer : t -> bool
(** EL2 timer registers — the "always trap" NEVE class. *)

val read_only : t -> bool
(** Registers whose writes are ignored (ID registers, GIC status). *)

(** NEVE classification (Tables 3, 4, 5 and the PMU/debug/timer notes of
    Section 6.1). *)
type neve_class =
  | NV_vm_reg              (** Table 3: access deferred to memory *)

  | NV_redirect of t       (** Table 4: redirect to the EL1 counterpart *)

  | NV_redirect_vhe of t   (** Table 4 "(VHE)" rows *)

  | NV_trap_on_write       (** cached reads, trapping writes *)

  | NV_redirect_or_trap of t
      (** TCR_EL2/TTBR0_EL2: redirect for VHE guest hypervisors whose EL2
          format matches EL1; cached-read/trap-write otherwise *)
  | NV_timer_trap
      (** EL2 timers: reads must observe hardware-updated values *)
  | NV_none                (** outside NEVE's scope *)

val neve_class : t -> neve_class

val all : t list
(** The full register universe (including all 16 LRs and 8 APRs). *)

val code_of_enc : int * int * int * int * int -> int
(** An encoding packed into 16 bits: op0 in [15:14], op1 [13:11], CRn
    [10:7], CRm [6:3], op2 [2:0], the layout of an MRS/MSR instruction's
    bits [20:5] and of {!Exn.sysreg_iss_code}.  [-1] for a field out of
    range. *)

val access_of_code : int -> access option
(** The access a packed encoding names, from one exact table filled at
    module load: the shared [Some] of the shared access record
    ({!direct}, {!el12}, {!el02}), so a lookup allocates nothing.  A
    register's own encoding names it directly; an op1=5 encoding that is
    no register's own names the [_EL12] alias of the op1=0 register with
    the same remaining fields, else the [_EL02] alias of the op1=3 one.
    [None] for a code that names nothing, or is outside [0, 0xffff]. *)

val access_of_enc : int * int * int * int * int -> access option
(** Inverse of {!access_enc}: {!access_of_code} of {!code_of_enc}. *)

val of_enc : int * int * int * int * int -> t option
(** Reverse encoding lookup: the register whose own encoding this is. *)

val count : int
(** Size of the dense index space: [index] is a bijection between the
    register universe and [0, count). *)

val index : t -> int
(** Dense integer index of a register — the key for the flat-array
    register file, context-slot table and deferred-page offset table.
    Total and collision-free over {!all}; validated at module init. *)

val of_index : int -> t
(** Inverse of {!index}.  Raises [Invalid_argument] outside [0, count). *)

val has_vncr_offset : t -> bool
(** [vncr_offset r <> None] without the option allocation. *)

val vncr_layout : t list
(** Page-resident registers, in slot order. *)

val vncr_offset : t -> int option
(** Byte offset of a register's deferred-access-page slot (8-byte aligned,
    unique; synthetic — the paper leaves the layout to the architecture). *)

val vncr_slot : t -> int
(** {!vncr_offset} without the option: the offset, or [-1] for a
    register with no slot. *)

val page_size : int

(** {1 The paper's tables as data (for tests and documentation)} *)

val table3 : t list
(** 26 distinct registers; the paper's Table 3 prints TPIDR_EL2 twice and
    counts 27 rows. *)

val table4_redirect : t list
val table4_redirect_vhe : t list
val table4_trap_on_write : t list
val table4_redirect_or_trap : t list
val table4 : t list
val table5 : t list

val pp : Format.formatter -> t -> unit
