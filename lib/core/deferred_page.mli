(** The deferred access page (paper Section 6.1).

    A page of normal memory, named by {!Vncr} BADDR, in which NEVE-enabled
    hardware stores the values of VM system registers instead of trapping.
    Every page-resident register has a fixed 8-byte slot
    ({!Arm.Sysreg.vncr_offset}).

    The host hypervisor populates the page with virtual-EL2 register
    values before running a guest hypervisor, reads it back when it needs
    those values (e.g. on a trapped eret, to load the nested VM's state
    into hardware), and refreshes the cached copies of trap-on-write
    registers after emulating a trapped write. *)

type t = {
  base : int64;       (** physical address, page-aligned *)
  mem : Arm.Memory.t;
  enabled : int64;    (** {!vncr_value} with [~enable:true], built once *)
}

exception Unmapped_register of Arm.Sysreg.t
(** Raised when accessing a register with no page slot (e.g. a
    redirect-class register, which lives in its EL1 twin instead). *)

val create : Arm.Memory.t -> base:int64 -> t
(** Allocate (zero) a deferred access page at [base].
    @raise Invalid_argument if [base] is not page-aligned. *)

val has_slot : Arm.Sysreg.t -> bool

val read : t -> Arm.Sysreg.t -> int64
val write : t -> Arm.Sysreg.t -> int64 -> unit

val write_from : t -> Arm.Sysreg.t -> Arm.Sysreg_file.t -> unit
(** [write_from t r src] is [write t r (Sysreg_file.read src r)],
    moving the value as an unboxed word. *)

val holds : t -> Arm.Sysreg.t -> Arm.Sysreg_file.t -> bool
(** [holds t r file]: the page's slot for [r] holds what [file] holds
    for [r] ([read t r = Sysreg_file.read file r]), compared in place
    without boxing either value. *)

val layout_len : int
(** Number of slots in {!Arm.Sysreg.vncr_layout}, precomputed for the
    per-transition copy-cost charges. *)

val populate : t -> read_virtual:(Arm.Sysreg.t -> int64) -> unit
(** Fill every slot from a register-valued function (typically the
    vCPU's virtual state), before entering the guest hypervisor. *)

val drain : t -> write_virtual:(Arm.Sysreg.t -> int64 -> unit) -> unit
(** Read every slot back into a register sink, when the host needs the
    authoritative values (trapped eret, vCPU descheduling). *)

val populate_from :
  t -> el2:Arm.Sysreg_file.t -> el1:Arm.Sysreg_file.t -> unit
(** {!populate} from a vCPU's virtual register files — EL2-level
    registers from [el2], the rest from [el1] — moving each slot as an
    unboxed word.  Allocates nothing. *)

val drain_into :
  t -> el2:Arm.Sysreg_file.t -> el1:Arm.Sysreg_file.t -> skip:bool array ->
  unit
(** {!drain} into the virtual register files (hardware-write semantics),
    leaving alone every register whose dense {!Arm.Sysreg.index} is set
    in [skip].  Allocates nothing. *)

val vncr_value : t -> enable:bool -> int64
(** The VNCR_EL2 encoding pointing at this page. *)

val pp : Format.formatter -> t -> unit
