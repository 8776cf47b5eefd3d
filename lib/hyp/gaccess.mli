(** Guest-hypervisor access funnel.

    Every architectural interaction the guest hypervisor performs goes
    through this module as an instruction executed on the simulated CPU at
    EL1.  Under a hardware mechanism the instruction executes as written
    and the trap router does the rest; under a paravirtualized mechanism
    the CPU runs the instruction {!Paravirt.patch} puts in its place, as
    the paper's compile-time wrappers do (Section 4).  The world-switch
    context loops run through {!World_switch}'s compiled plans, the
    compiler the host's exit path uses too, over the same instructions.

    {!rd}, {!wr}, {!hvc} and {!eret} run through route sites
    ({!Arm.Route_key}): each access's instruction is built (and patched)
    on its first use and routed once per routing state, so a repeated
    access replays its action and allocates nothing.  {!ld} and {!st}
    build no instruction at all ({!Arm.Cpu.ldr_at}/{!Arm.Cpu.str_at}).  Sites
    survive {!Machine.rewind} and are never serialized. *)

module Cpu = Arm.Cpu
module Sysreg = Arm.Sysreg

type t = {
  cpu : Cpu.t;
  config : Config.t;
  page_base : int64;  (** deferred access / shared page base *)
  mutable tamper : (int64 -> int64) option;
      (** one-shot fault-injection corruption of the next {!rd}/{!ld}
          result *)
  copier : World_switch.copier;
      (** the funnel's {!ops} (through {!data_reg}, with [msr r, x10]
          writes) and the compiled plans of the context loops run
          through it *)
  sites : Arm.Route_key.table;
      (** the route sites of {!rd}, {!wr} (one per register, alias and
          direction) and {!eret}, built on first use *)
  mutable hvc_site : (int * Arm.Route_key.site) option;
      (** the last {!hvc} immediate and its route site *)
}

val v : Cpu.t -> Config.t -> page_base:int64 -> t

val data_reg : int
(** x10: carries MRS results and MSR sources through the funnel. *)

val rd : t -> Sysreg.access -> int64
val wr : t -> Sysreg.access -> int64 -> unit
val ld : t -> int64 -> int64
val st : t -> int64 -> int64 -> unit

val rd_data : t -> Sysreg.access -> unit
(** {!rd} with the value left in {!data_reg} instead of returned, so a
    caller that keeps it as a word allocates nothing. *)

val wr_data : t -> Sysreg.access -> unit
(** {!wr} of the value already in {!data_reg}. *)

val ld_at : t -> base:int64 -> int -> unit
(** {!ld} of [base + off] into {!data_reg}, the address never boxed. *)

val st_at : t -> base:int64 -> int -> unit
(** {!st} of the value in {!data_reg} at [base + off], likewise. *)

val hvc : t -> int -> unit
val eret : t -> unit

val gich_access : t -> Sysreg.t -> is_write:bool -> unit
(** A GICv2 GICH frame access: a plain device access at EL2, a stage-2
    data abort when deprivileged (the "trivially traps" path of
    Section 4).  The value moves through {!data_reg}.  An access with no
    GICH mapping injects UNDEF when deprivileged and raises
    {!Fault.Error.Sim_fault} at EL2. *)

val ops : t -> World_switch.ops
(** The funnel as world-switch operations, built once by {!v}. *)

val save_ctx : t -> alias:Sysreg.alias -> ctx:int64 -> Sysreg.t array -> unit
(** Save the given registers to their context slots:
    {!World_switch.save_array} over {!ops} (each register through
    [World_switch.via alias]), run through {!World_switch.save}'s
    compiled plan except under a pending fault-injection corruption,
    which takes the reference loop.  [regs] must be a preallocated array
    (plans are keyed on it). *)

val restore_ctx :
  t -> alias:Sysreg.alias -> ctx:int64 -> Sysreg.t array -> unit
