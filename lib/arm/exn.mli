(** Exception classes and syndrome (ESR_ELx) encoding.

    Exception-class values follow the ARM ARM.  The classes that matter
    for the paper: trapped MSR/MRS (0x18), HVC (0x16), and the ERET trap
    (0x1a) added by FEAT_NV in ARMv8.3. *)

type ec =
  | EC_unknown
  | EC_wfx
  | EC_svc64
  | EC_hvc64
  | EC_smc64
  | EC_sysreg      (** trapped MSR/MRS/system instruction *)
  | EC_eret        (** FEAT_NV: trapped ERET from EL1 *)
  | EC_iabt_lower
  | EC_dabt_lower  (** stage-2 data abort: MMIO emulation, shadow faults *)
  | EC_serror      (** FEAT_RAS: SError interrupt (physical or virtual) *)
  | EC_irq         (** asynchronous interrupt (software-defined code) *)

val ec_code : ec -> int
val ec_of_code : int -> ec option
val ec_name : ec -> string

val esr : ec:ec -> iss:int -> int64
(** Build an ESR value: EC in [31:26], IL set, ISS in [24:0]. *)

val esr_bits : ec:ec -> iss:int -> int
(** {!esr} as an [int] (the syndrome lies below bit 32), for callers that
    must not box the value. *)

val esr_ec : int64 -> ec option
val esr_iss : int64 -> int

val sysreg_iss : access:Sysreg.access -> rt:int -> is_read:bool -> int
(** ISS for a trapped MSR/MRS per the ARM ARM: direction bit 0, CRm[4:1],
    Rt[9:5], CRn[13:10], Op1[16:14], Op2[19:17], Op0[21:20]. *)

val sysreg_iss_rt : int -> int
(** Rt of a trapped MSR/MRS syndrome. *)

val sysreg_iss_is_read : int -> bool
(** The direction bit of a trapped MSR/MRS syndrome: [true] for MRS. *)

val sysreg_iss_code : int -> int
(** The packed 16-bit encoding a trapped MSR/MRS syndrome names, op0 in
    [15:14], op1 [13:11], CRn [10:7], CRm [6:3], op2 [2:0] (the
    instruction's bits [20:5]): the key of {!Sysreg.access_of_code}.
    These three accessors allocate nothing. *)

type decoded_sysreg = {
  ds_enc : int * int * int * int * int;
  ds_rt : int;
  ds_is_read : bool;
}

val decode_sysreg_iss : int -> decoded_sysreg

val hvc_iss : int -> int
(** The 16-bit immediate carried by HVC/SVC/SMC. *)

(** A fully-described exception being delivered. *)
type entry = {
  target : Pstate.el;        (** exception level taking the exception *)
  ec : ec;
  iss : int;
}
(** An abort's faulting address is not part of the entry: it travels in
    FAR_EL2/HPFAR_EL2 (see {!Cpu.data_abort}). *)

val pp_entry : ?far:int64 -> Format.formatter -> entry -> unit
(** [far] is an abort's faulting address, printed after the syndrome. *)

val entry_label : entry -> string
(** Compact ["EC->EL iss=0x.."] form for trace-event details.  Allocates;
    callers guard with [if !Trace.on then ...]. *)
