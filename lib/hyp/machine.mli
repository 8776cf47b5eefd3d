(** A multi-core ARM machine with a full virtualization stack: shared
    physical memory, one simulated CPU per core, a host hypervisor per
    core and — in nested scenarios — a guest hypervisor per core, wired
    so IPIs cross cores.  Also provides the guest-side operations the
    workloads and microbenchmarks use. *)

module Cpu = Arm.Cpu

type t = {
  mem : Arm.Memory.t;
  cpus : Cpu.t array;
  hosts : Host_hyp.t array;
  ghyps : Guest_hyp.t option array;
  config : Config.t;
  scenario : Host_hyp.scenario;
  expose : Expose.Policy.t;
      (** OoH per-feature exposure grant handed to the guest hypervisors
          at creation; machine topology, serialized with snapshots *)
  fault : Fault.Plan.t option;
  checking : bool;
      (** invariant checks wrapped around every EL2 exception *)
  inv_states : Fault.Invariants.state array;
  mutable violations : Fault.Invariants.violation list;  (** newest first *)
  mutable violation_count : int;
  irq_fault : Fault.Plan.kind option array;
      (** pending drop/duplicate verdict per CPU *)
  hung : bool array;
      (** a hung vCPU retires no guest work until recovery clears it;
          serialized with the machine so snapshot continuation replays
          identically — recovery policies call {!clear_hung} after a
          restore, the restart being what un-wedges the vCPU *)
  dist : Gic.Dist.t;
      (** GIC distributor: trapped ICC_SGI1R writes pend SGIs in the
          target's banked records here (then acknowledge + EOI) before
          CPU-side delivery, so IPIs are real distributor traffic *)
  mutable smp : Mmu.Shootdown.t option;
      (** shared SMP stage-2, per-vCPU TLBs and the break-before-make
          checker; built lazily on the first SMP operation and not
          serialized — a restore comes back with empty TLBs, as
          migration does to real translation caches *)
  hvc_sites : Arm.Route_key.site array;
      (** each CPU's {!hypercall} instruction with its route memo; a
          cache, neither marked nor serialized *)
  ipi_sites : Arm.Route_key.site array;
      (** each CPU's {!send_ipi} write, [msr ICC_SGI1R_EL1, x9], with
          its route memo; a cache like [hvc_sites] *)
}

val ncpus : t -> int

val create :
  ?fault_plan:Fault.Plan.t ->
  ?check_invariants:bool ->
  ?ncpus:int ->
  ?table:Cost.table ->
  ?expose:Expose.Policy.t ->
  Config.t ->
  Host_hyp.scenario ->
  t
(** [expose] (default {!Expose.Policy.none}) is the OoH per-feature
    grant set L0 hands every guest hypervisor: granted facilities'
    virtual EL2 accesses run trap-free against hardware (the fourth
    virtualization mechanism, orthogonal to [config]'s
    trap-and-emulate/NEVE/paravirt axis).
    [fault_plan] threads a deterministic fault injector through the
    machine: events fire at their scheduled trap counts when guest-side
    operations run, and the stage-2 walker's injection point is armed.
    [check_invariants] (implied by [fault_plan]) runs
    {!Fault.Invariants} around every EL2 exception and records
    violations on the machine; its CPUs keep the trap trail a
    [Sim_fault] reports ({!Cpu.trail}).
    @raise Fault.Error.Sim_fault with [Bad_topology] when [ncpus] is
    non-positive or exceeds {!Vcpu.max_vcpus} (the per-vCPU memory-region
    address budget). *)

(** {1 Rewinding}

    A mark records a machine's complete mutable state — memory, CPUs
    and meters, host and guest hypervisors, the distributor and the
    fault-reporting fields — so the machine can later be put back
    exactly, while its compiled world-switch plans stay warm (the
    translation cache and the trap-entry and syndrome memos are
    emptied).  The differential fuzzer rewinds one booted machine per
    column instead of building a fresh one per program. *)

type mark

val mark : t -> mark
(** @raise Invalid_argument on a machine with a fault plan or SMP
    translation state (neither is marked). *)

val rewind : ?drop:(int -> Bytes.t -> unit) -> t -> mark -> unit
(** Put back every marked field: afterwards the machine is
    indistinguishable from the one marked ([Snap.Image.diff] finds
    nothing), including after a run that raised mid-handler.  The
    memory's code generation moves forward rather than back, and the
    memory pages created since the mark are dropped, each passed to
    [drop] ({!Arm.Memory.rewind}). *)

val boot : t -> unit
(** Bring the stack up; nested scenarios launch the nested VM end to end
    through the real trap machinery. *)

(** {1 Guest-side operations}

    Every operation below that takes [~cpu] (and {!send_ipi}'s
    [~target]) raises {!Fault.Error.Sim_fault} with [Bad_topology] when
    the index names no vCPU of the machine.  A guest's own ICC_SGI1R_EL1
    write to a nonexistent target is dropped silently, as on hardware. *)

val hypercall : t -> cpu:int -> unit
(** The Hypercall microbenchmark's [hvc #0] from the innermost guest. *)

val mmio_access : t -> cpu:int -> addr:int64 -> is_write:bool -> unit
(** An access to an emulated device: unmapped at stage 2, aborts to EL2
    (the Device I/O microbenchmark). *)

val data_abort : t -> cpu:int -> addr:int64 -> is_write:bool -> unit
(** A stage-2 fault that is not a device access: a shadow miss the host
    refills, or a fault reflected to the guest hypervisor. *)

val install_shadow :
  t -> cpu:int -> guest_s2:Mmu.Stage2.t -> host_s2:Mmu.Stage2.t ->
  Mmu.Shadow.t
(** Configure Turtles-style shadow stage-2 translation for a CPU's nested
    VM. *)

val send_ipi : t -> cpu:int -> target:int -> intid:int -> unit
(** ICC_SGI1R_EL1 write — traps and is emulated in every configuration
    (the Virtual IPI microbenchmark's sending half). *)

val vm_ack : t -> cpu:int -> int option
(** Acknowledge the highest-priority pending virtual interrupt against
    the hardware list registers — no trap.  Works on the list registers
    in place; a warm acknowledge allocates nothing. *)

val vm_eoi : t -> cpu:int -> vintid:int -> bool
(** Complete a virtual interrupt: the constant-cost, trap-free Virtual
    EOI of Tables 1 and 6.  Works on the list registers in place and
    allocates nothing. *)

val device_irq : t -> cpu:int -> intid:int -> unit
(** Deliver an external (device) interrupt, as the NIC would. *)

val compute : t -> cpu:int -> insns:int -> unit
(** Plain guest computation, charged without simulating each
    instruction. *)

(** {1 SMP stage-2 operations: TLB shootdown and break-before-make}

    The vCPUs share a stage-2 ({!Mmu.Shootdown}); remapping a live page
    must run break → TLBI broadcast → DSB → make.  {!tlbi_bcast} sends
    one shootdown SGI (intid 14, as Linux uses) per remote vCPU as real
    trapped ICC_SGI1R traffic, charges each recipient
    [Cost.tlbi_recipient], and {!dsb_sync} charges the initiator
    [Cost.dvm_sync] per recipient. *)

val smp : t -> Mmu.Shootdown.t
(** The machine's SMP translation state, created on first use. *)

val smp_map : t -> cpu:int -> ipa:int64 -> pa:int64 -> unit
(** Map a fresh page (no live entry, so no break needed). *)

val smp_read : t -> cpu:int -> ipa:int64 -> Mmu.Shootdown.serve
(** Translate through [cpu]'s TLB / the shared stage-2, audited against
    the shootdown protocol. *)

val bbm_break : t -> cpu:int -> ipa:int64 -> unit
val tlbi_bcast : t -> cpu:int -> Mmu.Shootdown.scope -> unit
val dsb_sync : t -> cpu:int -> unit
val bbm_make : t -> cpu:int -> ipa:int64 -> pa:int64 -> unit

val smp_remap : t -> cpu:int -> ipa:int64 -> pa:int64 -> unit
(** Remap a live page: {!bbm_break}, {!tlbi_bcast} by page,
    {!dsb_sync}, {!bbm_make}. *)

val shootdown_stats : t -> Mmu.Shootdown.stats option
(** [None] until the first SMP operation. *)

(** {1 Measurement helpers} *)

val snapshot : t -> Cost.snapshot list
val delta_since : t -> Cost.snapshot list -> Cost.delta
(** Summed across all CPUs. *)

val total_cycles : t -> int
val total_traps : t -> int

(** {1 Fault-injection reporting} *)

val violations : t -> Fault.Invariants.violation list
(** Violations recorded by the per-exception checker, oldest first
    (bounded sample; {!violation_count} counts them all). *)

val violation_count : t -> int

val undef_injections : t -> int
(** UNDEFs the host injected into guests for malformed accesses. *)

(** {1 Supervision hooks: hangs, SErrors and recovery} *)

val is_hung : t -> cpu:int -> bool
val hang : t -> cpu:int -> unit
(** Hang a vCPU directly (recovery campaigns inject through
    {!Fault.Plan.Hang_vcpu} or this). *)

val clear_hung : t -> cpu:int -> unit

val pend_serror : t -> cpu:int -> syndrome:int64 -> unit
(** Pend a virtual SError on a vCPU from outside the trap path; it is
    delivered at the next operation boundary. *)

val serror_pending : t -> cpu:int -> bool

val serror_containments : t -> int
(** Physical SErrors absorbed by the host, summed over CPUs. *)

val serror_injections : t -> int
(** Virtual SErrors delivered into guests, summed over CPUs. *)

val kill_l2 : t -> cpu:int -> unit
(** Graceful degradation: tear down a CPU's nested VM but keep its guest
    hypervisor runnable, clearing any hang.
    @raise Fault.Error.Sim_fault in single-VM scenarios (no L2). *)

val check_invariants : t -> Fault.Invariants.violation list
(** Steady-state sweep between operations: per-CPU register-file
    consistency, no leaked GPR snapshots outside a trap, NEVE page in
    sync.  Returns without recording. *)
