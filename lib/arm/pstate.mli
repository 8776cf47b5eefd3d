(** Process state: the parts of PSTATE the exception model needs. *)

type el = EL0 | EL1 | EL2
(** Exception levels: user, kernel, hypervisor (paper Section 2). *)

val el_name : el -> string
val el_level : el -> int
val compare_el : el -> el -> int

val currentel_bits : el -> int64
(** Encoding of PSTATE.EL as read through the CurrentEL register
    (bits [3:2]) — what ARMv8.3's disguise returns as EL2 to a
    deprivileged guest hypervisor. *)

type t = {
  el : el;
  sp_sel : bool;      (** true: SP_ELx; false: SP_EL0 *)
  irq_masked : bool;  (** PSTATE.I *)
  fiq_masked : bool;  (** PSTATE.F *)
  nzcv : int;         (** condition flags, bits [3:0] = N Z C V *)
}

val reset : t
(** Cold-boot state: EL2h with interrupts masked. *)

val at : el -> t
(** [at el] is {!reset} at the given exception level.  Allocates
    nothing: every PSTATE value is a shared, preallocated record. *)

val to_spsr : t -> int64
(** SPSR-format encoding saved on exception entry (M[3:0] mode bits,
    DAIF, NZCV). *)

val spsr_bits : t -> int
(** {!to_spsr} as an [int] (every field lies below bit 32), for callers
    that must not box the value. *)

val spsr_level : int -> int
(** The {!el_level} that the mode bits M[3:0] of an SPSR given as an
    [int] select, or [-1] for illegal mode bits: the mode check without
    decoding the rest. *)

val of_spsr_bits : int -> t option
(** {!of_spsr_opt} of the low 32 bits given as an [int].  Allocates
    nothing: the result is a shared, preallocated value. *)

val of_spsr : int64 -> t
(** Inverse of {!to_spsr}.
    @raise Invalid_argument on illegal mode bits. *)

val of_spsr_opt : int64 -> t option
(** [None] on illegal mode bits — for callers modelling what hardware
    does with a corrupt SPSR (illegal exception return) instead of
    aborting the simulation.  Allocates nothing. *)

val to_string : t -> string
(** The EL, [h]/[t] for the stack selected, then [" I"]/[" F"] for
    masked interrupts: ["EL1h I"]. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}. *)
