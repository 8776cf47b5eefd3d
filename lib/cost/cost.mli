(** Cycle cost model and trap-counting meters.

    All performance numbers produced by the simulator come from
    {!type:table}.  The architectural constants are taken from the paper's
    Section 5 measurements (trapping EL1 to EL2 costs 68-76 cycles
    regardless of the instruction; returning costs 65); the software
    constants were calibrated once against the non-nested VM rows of
    Table 1 and then held fixed across every experiment. *)

type table = {
  trap_entry : int;       (** exception entry EL1 -> EL2 (paper: ~70) *)
  trap_return : int;      (** eret EL2 -> EL1 (paper: 65) *)
  exc_entry_el1 : int;
  sysreg_read : int;
  sysreg_write : int;
  mem_load : int;
  mem_store : int;
  insn_base : int;
  barrier : int;
  tlbi : int;
  gic_mmio_access : int;
  irq_delivery : int;
  l0_exit_dispatch : int;  (** KVM exit decode + dispatch, per trap *)
  l0_sysreg_emulate : int;
  l0_hvc_handle : int;
  l0_inject_vel2 : int;    (** constructing a virtual EL2 exception *)
  l0_eret_emulate : int;   (** emulating a trapped eret *)
  l0_io_emulate : int;
  l0_ipi_send : int;
  l0_vgic_sync : int;      (** sanitizing/translating vGIC state *)
  l0_timer_emulate : int;
      (** EL2/EL02 timer emulation: multiplexing the VHE-only EL2 virtual
          timer with the VM timer (Section 7.1) *)
  l0_mem_fault : int;
  guest_hyp_logic : int;   (** guest-hypervisor C-code cost per exit *)
  x86_vmexit : int;        (** hardware VMCS save + root-mode entry *)
  x86_vmentry : int;
  x86_vmread : int;
  x86_vmwrite : int;
  x86_dispatch : int;
  x86_merge_vmcs : int;    (** L0 merging vmcs12 into vmcs02 *)
  x86_reflect : int;
  x86_unshadowed : int;
  x86_posted_irq : int;
  x86_guest_hyp_logic : int;
  x86_apicv_eoi : int;     (** the 316-cycle x86 Virtual EOI *)
  arm_virtual_eoi : int;   (** the 71-cycle ARM Virtual EOI *)
  mig_page_copy : int;     (** live migration: copying one 4 KB page *)
  mig_state_copy : int;
      (** live migration: CPU/device state transfer during the
          stop-and-copy phase *)
  serror_delivery : int;   (** taking a (virtual) SError exception *)
  watchdog_poll : int;     (** one supervision sweep over a vCPU *)
  recover_restore : int;   (** rebuilding a machine from a snapshot *)
  mig_retry_backoff : int; (** base backoff unit before a migration retry *)
  tlbi_recipient : int;
      (** TLB shootdown: per-recipient cost of a broadcast TLBI reaching
          a remote vCPU *)
  dvm_sync : int;
      (** TLB shootdown: per-recipient share of the initiator's DSB
          waiting for DVM completion *)
}

val default : table

val table_size : int
(** 43: the number of entries in a {!type:table}. *)

val table_to_array : table -> int array
(** The entries in declaration order ([trap_entry] first): the form
    snapshot images carry. *)

val table_of_array : int array -> table
(** Inverse of {!table_to_array}.
    @raise Invalid_argument unless the array has {!table_size} entries. *)

(** Trap classification for reporting (Table 7 and the trap-analysis
    example distinguish traps by cause). *)
type trap_kind =
  | Trap_hvc
  | Trap_sysreg_el2   (** EL2 system-register access from virtual EL2 *)
  | Trap_sysreg_el1   (** EL1 system-register access from virtual EL2 *)
  | Trap_sysreg_el12  (** VHE [_EL12]/[_EL02] alias access *)
  | Trap_sysreg_timer
  | Trap_sysreg_gic
  | Trap_sysreg_vm    (** VM-register access by a non-nested VM *)
  | Trap_eret
  | Trap_mmio
  | Trap_wfx
  | Trap_irq
  | Trap_smc
  | Trap_mem_fault    (** stage-2 translation fault (shadow miss) *)
  | Trap_x86_vmexit
  | Trap_serror       (** physical SError contained by L0 *)

val trap_kind_name : trap_kind -> string
val all_trap_kinds : trap_kind list

val kind_index : trap_kind -> int
(** Dense index of a kind into a meter's [by_kind] counter array. *)

val kind_count : int

val exposed_index : Expose.Policy.feature -> int
(** Dense index of an OoH feature into a meter's [exposed] counter
    array, mirroring {!kind_index}. *)

(** A meter accumulates cycles, instruction counts and trap counts for one
    measured region. *)
type meter = {
  table : table;
  mutable cycles : int;
  mutable insns : int;
  mutable traps : int;
  mutable mem_accesses : int;
  by_kind : int array;
      (** per-kind trap counts indexed by {!kind_index} (dense: hashed
          lookups were real cost on the trap path) *)
  exposed : int array;
      (** per-feature counts of accesses that ran trap-free under an
          OoH grant, indexed by {!exposed_index} *)
  mutable tid : int;
      (** owning CPU id — the trace lane for events this meter emits
          (set by [Machine.create]; standalone meters stay on lane 0) *)
}

val make_meter : ?table:table -> unit -> meter
val charge : meter -> int -> unit
val charge_insn : meter -> int -> unit

val count_insns : meter -> int -> unit
(** Account [n] retired instructions without charging cycles — for
    platform models (x86 VMCS accesses) whose cycle costs are calibrated
    constants but whose instruction counts feed the bench harness. *)

val record_trap : ?detail:string -> meter -> trap_kind -> unit
(** The single chokepoint every classified trap passes through.  When
    tracing is enabled it also emits a [Trace.Trap] event whose class is
    {!trap_kind_name}, which is why the tracer's per-class counter sums
    equal the meters' trap totals by construction. *)

val record_exposed : ?detail:string -> meter -> Expose.Policy.feature -> unit
(** The exposure twin of {!record_trap}: attribute a trap-free access
    to the OoH grant that saved the exit.  Charges no cycles — the
    access pays its ordinary execute cost at its execution site.  When
    tracing is enabled it emits a [Trace.Exposed_access] event whose
    class is the feature name. *)

val traps_of_kind : meter -> trap_kind -> int

type meter_mark
(** Every mutable field of a meter, as it was when marked. *)

val mark_meter : meter -> meter_mark
val rewind_meter : meter -> meter_mark -> unit
(** Put back the marked counts, per-kind and per-feature arrays and
    trace lane. *)

(** Immutable snapshot, for delta measurement around a benchmark region. *)
type snapshot = {
  snap_cycles : int;
  snap_insns : int;
  snap_traps : int;
  snap_by_kind : (trap_kind * int) list;
  snap_exposed : (Expose.Policy.feature * int) list;
}

val snapshot : meter -> snapshot

type delta = {
  d_cycles : int;
  d_insns : int;
  d_traps : int;
  d_by_kind : (trap_kind * int) list;
  d_exposed : (Expose.Policy.feature * int) list;
}

val delta_since : meter -> snapshot -> delta
val reset : meter -> unit

(** Statistics helpers (averages over repeated runs, Figure-2 overhead
    normalization). *)
module Stats : sig
  val mean : float list -> float
  val mean_int : int list -> float
  val stddev : float list -> float
  val min_max : float list -> float * float

  val percentile : float -> int list -> int
  (** Nearest-rank percentile of integer samples, [q] in (0, 1]; always
      returns an observed sample (no interpolation), so quantile streams
      stay byte-deterministic. *)

  val p50 : int list -> int
  val p99 : int list -> int
  val p999 : int list -> int

  val overhead : baseline:float -> measured:float -> float
  (** The y-axis of Figure 2: 1.0 means "same as native". *)

  val slowdown_x : baseline:float -> measured:float -> int
  (** Rounded the way the paper quotes slowdowns ("155x"). *)

  type summary = {
    label : string;
    runs : int;
    mean_cycles : float;
    mean_traps : float;
  }

  val summarize : label:string -> delta list -> summary
  val pp_summary : Format.formatter -> summary -> unit
end
