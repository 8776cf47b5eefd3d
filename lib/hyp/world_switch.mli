(** World-switch code, shared between the host hypervisor (executing at
    EL2) and the guest hypervisor (executing at EL1 through the access
    funnel, where the architecture routes — and possibly traps — every
    access).

    The functions move register state between the hardware and a context
    save area, following KVM/ARM's __sysreg_save/restore structure.  What
    traps is decided entirely by who executes them and under which
    configuration — the code is identical, which is the point.

    Every register list either hypervisor switches is one loop of a
    {!copier}: the host's EL1/EL0 context, and the guest hypervisor's
    EL1, EL0, debug, PMU, vGIC and VM-timer lists.  {!save_array} and
    {!restore_array} are the reference loops: a copier is tested against
    them and falls back to them mid-loop, the guest hypervisor runs them
    while a fault-injection corruption is pending, and perfbench times
    them. *)

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

val add_copies : int -> unit
(** Count register copies a hypervisor makes outside the copy loops:
    the guest hypervisor's GICv2 vGIC switch, which moves each register
    through the memory-mapped GICH frame. *)

val own_el2_access : vhe:bool -> Sysreg.t -> Sysreg.access
(** How a hypervisor reaches its {e own} EL2 register: the E2H-redirected
    EL1 form where one exists for VHE (no trap when deprivileged), the
    EL2 register directly otherwise. *)

val via : Sysreg.alias -> Sysreg.t -> Sysreg.access
(** The access form of each register in a loop under an alias: [via
    EL12] is how a VHE hypervisor reaches a {e VM's} EL1 registers, the
    [_EL12] alias where one exists (plain EL1 accesses are redirected to
    its own EL2 state), direct otherwise; [via EL02] is {!Sysreg.el02}
    (a VHE hypervisor's VM timer, Section 7.1); [via Direct] is
    {!Sysreg.direct}. *)

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

val copier :
  Arm.Cpu.t -> ops -> data:int -> imm_msr:bool ->
  patch:(Arm.Insn.t -> Arm.Insn.t) -> copier
(** [copier cpu ops ~data ~imm_msr ~patch]: the loops run on [cpu],
    whose reference [ops] the fallback runs.  Values move through general
    register [data] (x9 for the host, x10 for the guest hypervisor).
    Restores write with [msr r, x<data>], or, when [imm_msr], with an
    immediate MSR (the host's {!Arm.Cpu.msr}), which costs one
    normalizing [mov] whenever the access does not simply execute.
    [patch] maps each copy's [mrs]/[msr] to the instruction [ops] really
    executes for it: the identity for the host, {!Paravirt.patch} for a
    paravirtualized guest hypervisor, whose redirected copies then run
    in the register kernels, its loads and stores of the shared page as
    page copies, and its [hvc]s and [mov]s as replays.  It is applied
    once per copy, when a plan is compiled. *)

val ops_of : copier -> ops

val plan_keys : copier -> Arm.Route_key.t list list
(** The routing keys of the compiled plans, one list per loop met: a
    plan replays while its key holds. *)

val save : copier -> alias:Sysreg.alias -> ctx:int64 -> Sysreg.t array -> unit
(** [save c ~alias ~ctx regs] is [save_array (ops_of c) ~ctx ~via:(via
    alias) regs], run through the loop's compiled plan.  A loop is keyed
    on [regs] by physical identity: callers pass preallocated arrays. *)

val restore :
  copier -> alias:Sysreg.alias -> ctx:int64 -> Sysreg.t array -> unit

(** {1 Trap controls}, written by both hypervisors around a VM entry. *)

val activate_traps : ops -> vhe:bool -> hcr:int64 -> unit
val deactivate_traps : ops -> vhe:bool -> unit
val write_stage2 : ops -> vttbr:int64 -> unit
