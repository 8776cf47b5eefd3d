(** The GIC virtual interface: list registers, derived status registers,
    and the virtual CPU interface the VM sees.

    A pure codec over ICH register {e values}: the hypervisor moves those
    values through the simulated CPU so every access is routed (trapped,
    deferred, ...) by the architecture.  The hardware behaviour — a VM
    acknowledging and completing virtual interrupts directly against the
    list registers with no trap — is what makes the Virtual EOI
    microbenchmark cost 71 cycles in every configuration (paper Tables 1
    and 6). *)

(** Decoded ICH_LR<n>_EL2: state [63:62], HW [61], group [60], priority
    [55:48], physical intid [44:32], virtual intid [31:0]. *)
type lr = {
  lr_state : Irq.state;
  lr_hw : bool;
  lr_group1 : bool;
  lr_priority : int;
  lr_pintid : int;
  lr_vintid : int;
}

val empty_lr : lr
val encode_lr : lr -> int64
val decode_lr : int64 -> lr

val ich_hcr_en : int64
(** ICH_HCR_EL2.En: virtual-interface enable. *)

val compute_eisr : int64 array -> int64
(** Bit n set when LR n holds an EOI'd entry. *)

val compute_elrsr : int64 array -> int64
(** Bit n set when LR n is empty (usable). *)

val compute_misr : int64 array -> int64
(** Maintenance-interrupt status: bit 0 (EOI) when any EISR bit is set. *)

val pending_lr : int -> int64
(** [encode_lr { empty_lr with lr_state = Pending; lr_vintid }] built
    from integer operations: the list-register word a hypervisor writes
    to inject [lr_vintid]. *)

val lr_is_free : int64 -> bool
(** An empty slot: zero, or inactive with no vintid left behind. *)

val find_free_lr : int64 array -> int option

val inject : int64 array -> vintid:int -> ?priority:int -> unit -> int option
(** Place a virtual interrupt pending in a free LR; [None] when all LRs
    are in use (the hypervisor then needs a maintenance interrupt). *)

val v_acknowledge : int64 array -> int option
(** The VM acknowledges the highest-priority pending virtual interrupt:
    hardware updates the LR, no trap. *)

val v_eoi : int64 array -> vintid:int -> bool
(** The VM completes a virtual interrupt: hardware updates the LR, no
    trap.  False when the vintid was not active. *)

val acknowledge_in : Arm.Sysreg_file.t -> lrs:int -> int
(** {!v_acknowledge} on the first [lrs] list registers of a register
    file, in place: the acknowledged vintid, or [-1] when none is
    pending.  All [lrs] registers are hardware-written (dirty bits set).
    Allocates nothing.
    @raise Invalid_argument unless [0 <= lrs <= Sysreg.lr_count]. *)

val eoi_in : Arm.Sysreg_file.t -> lrs:int -> vintid:int -> bool
(** {!v_eoi} on the first [lrs] list registers of a register file, in
    place, with the same hardware writes as {!acknowledge_in}.
    Allocates nothing. *)

val pending_count : int64 array -> int
val pp_lr : Format.formatter -> int64 -> unit
