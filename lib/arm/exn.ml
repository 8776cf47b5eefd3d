(* Exception classes and syndrome (ESR_ELx) encoding.

   The exception-class values follow the ARM ARM; the ones that matter for
   the paper are trapped MSR/MRS (0x18), HVC (0x16), and the ERET trap
   (0x1a) added by FEAT_NV in ARMv8.3. *)

type ec =
  | EC_unknown
  | EC_wfx
  | EC_svc64
  | EC_hvc64
  | EC_smc64
  | EC_sysreg          (* trapped MSR/MRS/system instruction *)
  | EC_eret            (* FEAT_NV: trapped ERET from EL1 *)
  | EC_iabt_lower
  | EC_dabt_lower      (* stage-2 data abort: MMIO emulation, shadow faults *)
  | EC_serror          (* FEAT_RAS: SError interrupt (physical or virtual) *)
  | EC_irq             (* not an ESR class: asynchronous interrupt *)

let ec_code = function
  | EC_unknown -> 0x00
  | EC_wfx -> 0x01
  | EC_svc64 -> 0x15
  | EC_hvc64 -> 0x16
  | EC_smc64 -> 0x17
  | EC_sysreg -> 0x18
  | EC_eret -> 0x1a
  | EC_iabt_lower -> 0x20
  | EC_dabt_lower -> 0x24
  | EC_serror -> 0x2f
  | EC_irq -> 0x3f (* software-defined: interrupts have no ESR EC *)

let ec_of_code = function
  | 0x00 -> Some EC_unknown
  | 0x01 -> Some EC_wfx
  | 0x15 -> Some EC_svc64
  | 0x16 -> Some EC_hvc64
  | 0x17 -> Some EC_smc64
  | 0x18 -> Some EC_sysreg
  | 0x1a -> Some EC_eret
  | 0x20 -> Some EC_iabt_lower
  | 0x24 -> Some EC_dabt_lower
  | 0x2f -> Some EC_serror
  | 0x3f -> Some EC_irq
  | _ -> None

let ec_name = function
  | EC_unknown -> "UNKNOWN"
  | EC_wfx -> "WFx"
  | EC_svc64 -> "SVC64"
  | EC_hvc64 -> "HVC64"
  | EC_smc64 -> "SMC64"
  | EC_sysreg -> "SYSREG"
  | EC_eret -> "ERET"
  | EC_iabt_lower -> "IABT"
  | EC_dabt_lower -> "DABT"
  | EC_serror -> "SERROR"
  | EC_irq -> "IRQ"

(* ESR layout: EC in [31:26], IL in [25], ISS in [24:0]. *)
(* EC in [31:26], IL (bit 25), ISS in [24:0]: the whole syndrome sits
   below bit 32, so it is built as an [int]. *)
let esr_bits ~ec ~iss =
  (ec_code ec lsl 26) lor 0x0200_0000 lor (iss land 0x1ff_ffff)

let esr ~ec ~iss = Int64.of_int (esr_bits ~ec ~iss)

let esr_ec v =
  ec_of_code (Int64.to_int (Int64.logand (Int64.shift_right_logical v 26) 0x3fL))

let esr_iss v = Int64.to_int (Int64.logand v 0x1ff_ffffL)

(* ISS encoding for a trapped MSR/MRS, per the ARM ARM:
   bit 0: direction (1 = read/MRS), [4:1]=CRm, [9:5]=Rt, [13:10]=CRn,
   [16:14]=Op1, [19:17]=Op2, [21:20]=Op0. *)
let sysreg_iss ~(access : Sysreg.access) ~rt ~is_read =
  let op0, op1, crn, crm, op2 = Sysreg.access_enc access in
  (if is_read then 1 else 0)
  lor (crm lsl 1)
  lor ((rt land 0x1f) lsl 5)
  lor (crn lsl 10)
  lor (op1 lsl 14)
  lor (op2 lsl 17)
  lor (op0 lsl 20)

(* The same fields read one at a time, allocating nothing: the host
   decodes every trapped access this way.  The packed code is the
   16-bit (op0, op1, CRn, CRm, op2) field of the MRS/MSR instruction
   (its bits [20:5]), the key of {!Sysreg.access_of_code}. *)
let[@inline] sysreg_iss_rt iss = (iss lsr 5) land 0x1f
let[@inline] sysreg_iss_is_read iss = iss land 1 = 1

let sysreg_iss_code iss =
  (((iss lsr 20) land 0x3) lsl 14)
  lor (((iss lsr 14) land 0x7) lsl 11)
  lor (((iss lsr 10) land 0xf) lsl 7)
  lor (((iss lsr 1) land 0xf) lsl 3)
  lor ((iss lsr 17) land 0x7)

type decoded_sysreg = {
  ds_enc : int * int * int * int * int;
  ds_rt : int;
  ds_is_read : bool;
}

let decode_sysreg_iss iss =
  let bit n = (iss lsr n) land 1 in
  let field lo width = (iss lsr lo) land ((1 lsl width) - 1) in
  {
    ds_enc = (field 20 2, field 14 3, field 10 4, field 1 4, field 17 3);
    ds_rt = field 5 5;
    ds_is_read = bit 0 = 1;
  }

(* ISS for HVC/SVC/SMC carries the 16-bit immediate. *)
let hvc_iss imm = imm land 0xffff

(* A fully-described exception being delivered. *)
type entry = {
  target : Pstate.el;     (* EL taking the exception *)
  ec : ec;
  iss : int;
}

let pp_entry ?far ppf e =
  Fmt.pf ppf "%s -> %s (iss=0x%x%a)" (ec_name e.ec)
    (Pstate.el_name e.target) e.iss
    Fmt.(option (fun ppf a -> pf ppf ", far=0x%Lx" a))
    far

(* Compact one-line form for trace events (class, target EL, syndrome).
   Only built when tracing is on — callers guard the allocation. *)
let entry_label e =
  Printf.sprintf "%s->%s iss=0x%x" (ec_name e.ec) (Pstate.el_name e.target)
    e.iss
