(** World-switch code, shared between the host hypervisor (executing at
    EL2) and the guest hypervisor (executing at EL1 through the access
    funnel, where the architecture routes — and possibly traps — every
    access).

    The functions move register state between the hardware and a context
    save area, following KVM/ARM's __sysreg_save/restore structure.  What
    traps is decided entirely by who executes them and under which
    configuration — the code is identical, which is the point. *)

module Sysreg = Arm.Sysreg

(** How the executing hypervisor touches the world. *)
type ops = {
  rd : Sysreg.access -> int64;
  wr : Sysreg.access -> int64 -> unit;
  ld : int64 -> int64;
  st : int64 -> int64 -> unit;
}

val slot : int64 -> Sysreg.t -> int64

val reg_copies : unit -> int
(** Monotonic count of register copies performed by the save/restore
    loops on the {e calling domain} since it started.  The world-switch
    tracer takes deltas around enter/exit to attribute a copy count to
    each switch; the counter is domain-local so fleet shards never race
    on it. *)

val own_el2_access : vhe:bool -> Sysreg.t -> Sysreg.access
(** How a hypervisor reaches its {e own} EL2 register: the E2H-redirected
    EL1 form where one exists for VHE (no trap when deprivileged), the
    EL2 register directly otherwise. *)

val vm_el1_access : vhe:bool -> Sysreg.t -> Sysreg.access
(** How a hypervisor reaches a {e VM's} EL1 register: the [_EL12] alias
    for VHE (plain EL1 accesses are redirected to its own EL2 state),
    direct otherwise. *)

val save_array : ops -> ctx:int64 -> via:(Sysreg.t -> Sysreg.access) ->
  Sysreg.t array -> unit
(** The reference save loop: per register, [ops.st (slot ctx r)
    (ops.rd (via r))], in order. *)

val restore_array : ops -> ctx:int64 -> via:(Sysreg.t -> Sysreg.access) ->
  Sysreg.t array -> unit

(** {1 Compiled copy plans}

    What {!save_array}/{!restore_array} do over a hypervisor's [ops], for
    the same registers, compiled once per routing state: register-file
    copies run as {!Arm.Sysreg_file.save}/{!Arm.Sysreg_file.restore}
    word kernels, NV2-deferred copies as {!Arm.Memory.copy64}, and any
    other copy replays its instruction under its precomputed route
    ({!Arm.Cpu.exec_with_action}).  A run is observably identical to the
    reference loop: the same register-file and memory writes, meter
    charges, copy count, PC advance and final data-register value.  If a
    replayed copy moves the routing state, the loop finishes through the
    reference loop from the next copy. *)

type copier
(** One hypervisor's copy loops and their compiled plans. *)

val copier : Arm.Cpu.t -> ops -> data:int -> imm_msr:bool -> copier
(** [copier cpu ops ~data ~imm_msr]: the loops run on [cpu], whose
    reference [ops] the fallback runs.  Values move through general
    register [data] (x9 for the host, x10 for the guest hypervisor).
    Restores write with [msr r, x<data>], or, when [imm_msr], with an
    immediate MSR (the host's {!Arm.Cpu.msr}), which costs one
    normalizing [mov] whenever the access does not simply execute. *)

val ops_of : copier -> ops

val plan_keys : copier -> Arm.Route_key.t list list
(** The routing keys of the compiled plans, one list per loop met: a
    plan replays while its key holds. *)

val save : copier -> el12:bool -> ctx:int64 -> Sysreg.t array -> unit
(** [save c ~el12 ~ctx regs] is [save_array (ops_of c) ~ctx ~via regs] with
    [via] the [el12] alias form, run through the loop's compiled plan. *)

val restore : copier -> el12:bool -> ctx:int64 -> Sysreg.t array -> unit

(** vGIC interface accessors: GICv3 system registers or GICv2's
    memory-mapped GICH frame — identical code paths, different accessor,
    as on real hardware. *)
type gic_ops = {
  gic_rd : Sysreg.t -> int64;
  gic_wr : Sysreg.t -> int64 -> unit;
}

val save_vgic : ?gic:gic_ops -> ops -> ctx:int64 -> used_lrs:int -> unit
(** Read interface state (only in-use list registers — this matters for
    trap counts) and disable the interface.  [used_lrs] is in
    [0..Sysreg.lr_count]. *)

val restore_vgic : ?gic:gic_ops -> ops -> ctx:int64 -> used_lrs:int -> unit

val save_vm_timer : ops -> vhe:bool -> ctx:int64 -> unit
val restore_vm_timer : ops -> vhe:bool -> ctx:int64 -> unit
val write_timer_controls : ops -> vhe:bool -> cntvoff:int64 -> unit

val arm_vhe_hyp_timer : ops -> cval:int64 -> unit
(** The VHE hypervisor's own EL2 virtual timer, programmed through
    E2H-redirected EL1 timer instructions — never traps. *)

val activate_traps : ops -> vhe:bool -> hcr:int64 -> unit
val deactivate_traps : ops -> vhe:bool -> unit
val write_stage2 : ops -> vttbr:int64 -> unit
val write_vpidr : ops -> midr:int64 -> mpidr:int64 -> unit
