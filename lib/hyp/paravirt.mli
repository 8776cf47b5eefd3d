(** Paravirtualization of the guest hypervisor (paper Sections 4 and 6.4).

    ARMv8.0 has no nested-virtualization support: hypervisor instructions
    at EL1 are UNDEFINED rather than trapping.  The paper's methodology
    replaces each such instruction with one that behaves — and costs —
    what the {e target} architecture would do:

    - mimicking ARMv8.3: trapping instructions become [hvc #op], the
      16-bit operand encoding the original instruction;
    - mimicking NEVE: VM-register accesses become loads/stores to a
      shared memory region, control-register accesses become EL1-register
      accesses, and only the residual traps become [hvc].

    The rewriter does not guess: it asks {!Arm.Trap_rules.route} what the
    target architecture would do and translates the answer — which is why
    hardware and paravirtualized runs produce identical trap counts.

    Operand encoding (16 bits): bits [15:6] = form index + 1 (0 marks a
    real hypercall), [5:1] = Rt, [0] = direction. *)

module Sysreg = Arm.Sysreg
module Insn = Arm.Insn
module Trap_rules = Arm.Trap_rules

val forms : Sysreg.access array
(** Every access form a guest hypervisor can perform: all direct accesses
    plus the [_EL12]/[_EL02] aliases. *)

val encode_sysreg_op : access:Sysreg.access -> rt:int -> is_read:bool -> int

type op =
  | Op_hypercall of int  (** a real hypercall: operand < 64 *)
  | Op_sysreg of { access : Sysreg.access; rt : int; is_read : bool }
  | Op_eret
  | Op_invalid of int
      (** outside the registry: guest-controlled input, the host injects
          UNDEF *)

val decode_op : int -> op
(** Total — a guest can pass any operand, so malformed ones decode to
    {!Op_invalid} instead of raising. *)

val op_name : op -> string
(** Human-readable form for trace-event details. *)

val target_route :
  Config.t -> page_base:int64 -> Insn.t -> Trap_rules.action
(** What the configuration's target architecture does with an instruction
    executed at EL1 by the guest hypervisor. *)

exception Would_undef of Insn.t
(** The instruction is UNDEFINED on the target architecture: callers
    deliver the UNDEF the target hardware would. *)

val rewrite : Config.t -> page_base:int64 -> Insn.t -> Insn.t list
(** The compile-time wrapper: one guest-hypervisor instruction to the
    ARMv8.0 sequence mimicking the target architecture.
    @raise Would_undef for instructions UNDEFINED on the target.
    @raise Fault.Error.Sim_fault for trapping shapes the rewriter cannot
    encode. *)

val page_base_reg : int
(** x28, holding the shared-page base by convention, so binary patching
    stays word-for-word. *)

val patch_text : Config.t -> page_base:int64 -> int array -> int array
