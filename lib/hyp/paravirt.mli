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

    The patcher does not guess: it asks {!Arm.Trap_rules.route} what the
    target architecture would do and translates the answer into one
    instruction — which is why hardware and paravirtualized runs produce
    identical trap counts.  The guest hypervisor's funnel ({!Gaccess})
    patches each access once, where it builds the access's route site or
    compiles a copy loop; {!patch_text} patches binary text.

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

val page_base_reg : int
(** x28, holding the shared-page base by convention, so binary patching
    stays word-for-word. *)

(** How a patched load or store names its shared-page slot. *)
type slot =
  | Absolute       (** [Abs addr]: the funnel's form *)
  | Page_relative  (** [Based (x28, addr - page_base)]: binary text's form *)

val patch : Config.t -> page_base:int64 -> slot:slot -> Insn.t -> Insn.t
(** One guest-hypervisor instruction to the one ARMv8.0 instruction
    mimicking the target architecture (Section 4's compile-time wrappers
    and binary patcher): an [hvc] carrying the access where the target
    traps, a load or store of the access's shared-page slot where it
    defers to memory, the access retargeted where it redirects, a [mov]
    of EL2 for a disguised CurrentEL read.  Anything else (an access the
    target executes as written or finds UNDEFINED, an immediate MSR,
    WFI) is returned physically unchanged, so the ARMv8.0 hardware runs
    it or raises the UNDEF, as it does for unpatched text.
    @raise Fault.Error.Sim_fault for a trapping access outside
    {!forms}. *)

val patch_text : Config.t -> page_base:int64 -> int array -> int array
(** Binary patching: each word decoded, {!patch}ed with [Page_relative]
    slots and encoded again; words that decode to nothing or need no
    patch are kept as they are. *)
