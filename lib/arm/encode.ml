(* A64 instruction encoding and decoding for the subset the paravirtualizer
   rewrites.  This is what makes the "fully automated approach, for example
   by binary patching a guest hypervisor image" (Section 4) demonstrable:
   we can encode a guest hypervisor text section, patch it word by word, and
   decode it back. *)

let mask_imm16 i = i land 0xffff

(* MSR/MRS (register form):
   31..22: 1101010100, bit 21: L (1 = MRS), bit 20: 1,
   bit 19: o0 (op0 = 2 + o0), [18:16] op1, [15:12] CRn, [11:8] CRm,
   [7:5] op2, [4:0] Rt. *)
let encode_sysreg_insn ~is_read ~(access : Sysreg.access) ~rt =
  let op0, op1, crn, crm, op2 = Sysreg.access_enc access in
  if op0 < 2 || op0 > 3 then invalid_arg "Encode: op0 out of range";
  let o0 = op0 - 2 in
  0xd500_0000
  lor (if is_read then 1 lsl 21 else 0)
  lor (1 lsl 20)
  lor (o0 lsl 19)
  lor (op1 lsl 16)
  lor (crn lsl 12)
  lor (crm lsl 8)
  lor (op2 lsl 5)
  lor (rt land 0x1f)

let encode_hvc imm = 0xd400_0002 lor (mask_imm16 imm lsl 5)
let encode_svc imm = 0xd400_0001 lor (mask_imm16 imm lsl 5)
let encode_smc imm = 0xd400_0003 lor (mask_imm16 imm lsl 5)
let encode_eret = 0xd69f_03e0
let encode_nop = 0xd503_201f
let encode_isb = 0xd503_3fdf
let encode_dsb_sy = 0xd503_3f9f

(* LDR/STR Xt, [Xn, #imm] (64-bit, unsigned scaled offset). *)
let encode_ldr ~rt ~rn ~imm =
  if imm mod 8 <> 0 || imm < 0 || imm / 8 > 0xfff then
    invalid_arg "Encode.encode_ldr: bad offset";
  0xf940_0000 lor ((imm / 8) lsl 10) lor ((rn land 0x1f) lsl 5) lor (rt land 0x1f)

let encode_str ~rt ~rn ~imm =
  if imm mod 8 <> 0 || imm < 0 || imm / 8 > 0xfff then
    invalid_arg "Encode.encode_str: bad offset";
  0xf900_0000 lor ((imm / 8) lsl 10) lor ((rn land 0x1f) lsl 5) lor (rt land 0x1f)

let encode_movz ~rd ~imm16 =
  0xd280_0000 lor (mask_imm16 imm16 lsl 5) lor (rd land 0x1f)

(* ADD/SUB, 64-bit: immediate form (imm12, shift 0) and shifted-register
   form (shift amount 0). *)
let encode_add_imm ~rd ~rn ~imm =
  if imm < 0 || imm > 0xfff then invalid_arg "Encode.encode_add_imm";
  0x9100_0000 lor (imm lsl 10) lor ((rn land 0x1f) lsl 5) lor (rd land 0x1f)

let encode_sub_imm ~rd ~rn ~imm =
  if imm < 0 || imm > 0xfff then invalid_arg "Encode.encode_sub_imm";
  0xd100_0000 lor (imm lsl 10) lor ((rn land 0x1f) lsl 5) lor (rd land 0x1f)

let encode_add_reg ~rd ~rn ~rm =
  0x8b00_0000 lor ((rm land 0x1f) lsl 16) lor ((rn land 0x1f) lsl 5)
  lor (rd land 0x1f)

let encode_sub_reg ~rd ~rn ~rm =
  0xcb00_0000 lor ((rm land 0x1f) lsl 16) lor ((rn land 0x1f) lsl 5)
  lor (rd land 0x1f)

(* B: 000101 imm26 (signed word offset). *)
let encode_b ~off =
  if off < -(1 lsl 25) || off >= 1 lsl 25 then
    invalid_arg "Encode.encode_b: offset out of range";
  0x1400_0000 lor (off land 0x3ff_ffff)

(* CBZ/CBNZ (64-bit): 1011010 o1 imm19 Rt. *)
let encode_cbz ~rt ~off =
  if off < -(1 lsl 18) || off >= 1 lsl 18 then
    invalid_arg "Encode.encode_cbz: offset out of range";
  0xb400_0000 lor ((off land 0x7_ffff) lsl 5) lor (rt land 0x1f)

let encode_cbnz ~rt ~off =
  if off < -(1 lsl 18) || off >= 1 lsl 18 then
    invalid_arg "Encode.encode_cbnz: offset out of range";
  0xb500_0000 lor ((off land 0x7_ffff) lsl 5) lor (rt land 0x1f)

(* Encode an instruction from the simulator's ISA.  Partial: only the forms
   that appear in hypervisor text are supported; others raise. *)
let encode (insn : Insn.t) =
  match insn with
  | Insn.Mrs (rt, access) -> encode_sysreg_insn ~is_read:true ~access ~rt
  | Insn.Msr (access, Insn.Reg rt) ->
    encode_sysreg_insn ~is_read:false ~access ~rt
  | Insn.Msr (_, Insn.Imm _) ->
    invalid_arg "Encode.encode: MSR with immediate has no single A64 form"
  | Insn.Hvc imm -> encode_hvc imm
  | Insn.Svc imm -> encode_svc imm
  | Insn.Smc imm -> encode_smc imm
  | Insn.Eret -> encode_eret
  | Insn.Nop -> encode_nop
  | Insn.Isb -> encode_isb
  | Insn.Dsb -> encode_dsb_sy
  | Insn.Ldr (rt, Insn.Based (rn, off)) ->
    encode_ldr ~rt ~rn ~imm:(Int64.to_int off)
  | Insn.Str (rt, Insn.Based (rn, off)) ->
    encode_str ~rt ~rn ~imm:(Int64.to_int off)
  | Insn.Mov (rd, Insn.Imm imm) when Int64.unsigned_compare imm 0x10000L < 0 ->
    encode_movz ~rd ~imm16:(Int64.to_int imm)
  | Insn.B off -> encode_b ~off
  | Insn.Cbz (rt, off) -> encode_cbz ~rt ~off
  | Insn.Cbnz (rt, off) -> encode_cbnz ~rt ~off
  | Insn.Add (rd, rn, Insn.Imm imm)
    when Int64.unsigned_compare imm 0x1000L < 0 ->
    encode_add_imm ~rd ~rn ~imm:(Int64.to_int imm)
  | Insn.Sub (rd, rn, Insn.Imm imm)
    when Int64.unsigned_compare imm 0x1000L < 0 ->
    encode_sub_imm ~rd ~rn ~imm:(Int64.to_int imm)
  | Insn.Add (rd, rn, Insn.Reg rm) -> encode_add_reg ~rd ~rn ~rm
  | Insn.Sub (rd, rn, Insn.Reg rm) -> encode_sub_reg ~rd ~rn ~rm
  | _ -> invalid_arg ("Encode.encode: unsupported " ^ Insn.to_string insn)

type decoded =
  | D_insn of Insn.t
  | D_unknown of int

let field w lo width = (w lsr lo) land ((1 lsl width) - 1)

let decode (w : int) : decoded =
  if w = encode_eret then D_insn Insn.Eret
  else if w = encode_nop then D_insn Insn.Nop
  else if w = encode_isb then D_insn Insn.Isb
  else if w = encode_dsb_sy then D_insn Insn.Dsb
  else if w land 0xffe0_001f = 0xd400_0002 then
    D_insn (Insn.Hvc (field w 5 16))
  else if w land 0xffe0_001f = 0xd400_0001 then
    D_insn (Insn.Svc (field w 5 16))
  else if w land 0xffe0_001f = 0xd400_0003 then
    D_insn (Insn.Smc (field w 5 16))
  else if w land 0xfff0_0000 = 0xd510_0000 || w land 0xfff0_0000 = 0xd530_0000
  then begin
    let is_read = field w 21 1 = 1 in
    let rt = field w 0 5 in
    (* bits [20:5] are the packed (op0, op1, CRn, CRm, op2), op0 being
       2 + bit 19 *)
    match Sysreg.access_of_code (field w 5 16) with
    | None -> D_unknown w
    | Some access ->
      if is_read then D_insn (Insn.Mrs (rt, access))
      else D_insn (Insn.Msr (access, Insn.Reg rt))
  end
  else if w land 0xffc0_0000 = 0xf940_0000 then
    D_insn
      (Insn.Ldr (field w 0 5, Insn.Based (field w 5 5, Int64.of_int (field w 10 12 * 8))))
  else if w land 0xffc0_0000 = 0xf900_0000 then
    D_insn
      (Insn.Str (field w 0 5, Insn.Based (field w 5 5, Int64.of_int (field w 10 12 * 8))))
  else if w land 0xffe0_0000 = 0xd280_0000 then
    D_insn (Insn.Mov (field w 0 5, Insn.Imm (Int64.of_int (field w 5 16))))
  else if w land 0xffc0_0000 = 0x9100_0000 then
    D_insn
      (Insn.Add (field w 0 5, field w 5 5, Insn.Imm (Int64.of_int (field w 10 12))))
  else if w land 0xffc0_0000 = 0xd100_0000 then
    D_insn
      (Insn.Sub (field w 0 5, field w 5 5, Insn.Imm (Int64.of_int (field w 10 12))))
  else if w land 0xffe0_fc00 = 0x8b00_0000 then
    D_insn (Insn.Add (field w 0 5, field w 5 5, Insn.Reg (field w 16 5)))
  else if w land 0xffe0_fc00 = 0xcb00_0000 then
    D_insn (Insn.Sub (field w 0 5, field w 5 5, Insn.Reg (field w 16 5)))
  else if w land 0xfc00_0000 = 0x1400_0000 then
    let off = field w 0 26 in
    let off = if off land 0x200_0000 <> 0 then off - 0x400_0000 else off in
    D_insn (Insn.B off)
  else if w land 0xff00_0000 = 0xb400_0000 then
    let off = field w 5 19 in
    let off = if off land 0x4_0000 <> 0 then off - 0x8_0000 else off in
    D_insn (Insn.Cbz (field w 0 5, off))
  else if w land 0xff00_0000 = 0xb500_0000 then
    let off = field w 5 19 in
    let off = if off land 0x4_0000 <> 0 then off - 0x8_0000 else off in
    D_insn (Insn.Cbnz (field w 0 5, off))
  else D_unknown w

(* Round-trip helper used by tests and by the binary patcher. *)
let roundtrips insn =
  match decode (encode insn) with
  | D_insn i -> i = insn
  | D_unknown _ -> false
