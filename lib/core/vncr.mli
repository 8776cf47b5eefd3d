(** VNCR_EL2 — the one register NEVE adds to the architecture.

    Paper Table 2: bits [52:12] hold [BADDR], the physical base address of
    the deferred access page; bit [0] is [Enable]; the rest is reserved.
    Section 6.3 mandates a page-aligned [BADDR] so hardware never needs
    alignment checks or translation-fault handling on redirected accesses;
    this module enforces that at construction time. *)

type t = {
  baddr : int64;  (** physical base of the deferred access page *)

  enable : bool;  (** master enable for all NEVE redirection *)

}

exception Invalid_vncr of string
(** Raised by {!v} on an unaligned or out-of-range [BADDR]. *)

val v : baddr:int64 -> enable:bool -> t
(** [v ~baddr ~enable] validates and builds a VNCR value.
    @raise Invalid_vncr if [baddr] is not page-aligned or exceeds
    bits [52:12]. *)

val encode : t -> int64
(** Architectural encoding per Table 2. *)

val decode : int64 -> t
(** Inverse of {!encode}, through [Arm.Trap_rules.vncr_baddr] and
    [vncr_enable]; reserved bits are ignored. *)

val disabled_value : int64
(** The all-clear value a host writes to turn NEVE off. *)

val program : Arm.Cpu.t -> t -> unit
(** Write the hardware VNCR_EL2 of a simulated CPU.  A host-hypervisor
    (EL2) operation; performed as a raw write because the host owns the
    register. *)

val read : Arm.Cpu.t -> t
(** Decode the current hardware VNCR_EL2. *)

val recursive : t -> translate_ipa:(int64 -> int64 option) -> t option
(** [recursive virt ~translate_ipa] is the hardware VNCR for an L2 guest
    hypervisor (Section 6.2): [virt] is the L1 guest hypervisor's virtual
    VNCR_EL2, read from its deferred access page, and [translate_ipa] maps
    an L1-physical address to a machine address.  [None] when [virt] is
    disabled or its BADDR does not translate.
    @raise Invalid_vncr if the translated BADDR is not a valid one. *)

val pp : Format.formatter -> t -> unit
