(** The simulated instruction set.

    The simulator executes straight-line instruction sequences; control
    flow lives in the host language and is charged through the cost model.
    What matters to the paper is the architectural behaviour of the
    instructions that interact with the exception model: MSR/MRS, HVC,
    ERET and memory accesses. *)

type operand =
  | Imm of int64
  | Reg of int  (** general register index, 0..30 *)

type addr =
  | Abs of int64           (** absolute physical address *)
  | Based of int * int64   (** [xN, #offset] *)

type t =
  | Mrs of int * Sysreg.access        (** xN := sysreg *)
  | Msr of Sysreg.access * operand    (** sysreg := operand *)
  | Hvc of int                        (** hypervisor call, 16-bit imm *)
  | Svc of int
  | Smc of int
  | Eret
  | Ldr of int * addr                 (** xN := mem64[addr] *)
  | Str of int * addr                 (** mem64[addr] := xN *)
  | Mov of int * operand
  | Add of int * int * operand
  | Sub of int * int * operand
  | And of int * int * operand
  | Orr of int * int * operand
  | Eor of int * int * operand
  | Lsl of int * int * int
  | Lsr of int * int * int
  | Isb
  | Dsb
  | Tlbi_vmalls12e1  (** invalidate stage-1+2 EL1 translations *)
  | Tlbi_alle2       (** invalidate EL2 translations *)
  | Wfi
  | Nop
  | B of int           (** pc-relative branch, offset in words *)
  | Cbz of int * int   (** branch if xN is zero *)
  | Cbnz of int * int  (** branch if xN is non-zero *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Whether (and how) an instruction accesses a system register — used by
    the trap router and the paravirtualization patcher. *)
type sysreg_use =
  | No_sysreg
  | Read_sysreg of Sysreg.access
  | Write_sysreg of Sysreg.access

val sysreg_use : t -> sysreg_use

val render : t -> string
(** {!to_string}, rendered once per instruction and domain (a bounded
    memo): for the texts a CPU's trap trail shows again and again. *)
