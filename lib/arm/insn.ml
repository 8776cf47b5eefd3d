(* The simulated instruction set.

   The simulator executes straight-line instruction sequences; control flow
   (the hypervisor's C code, guest OS logic) lives in the host language and
   is charged through the cost model.  What matters to the paper is the
   architectural behaviour of the instructions that interact with the
   exception model: MSR/MRS, HVC, ERET and memory accesses. *)

type operand =
  | Imm of int64
  | Reg of int  (* general register index, 0..30 *)

type addr =
  | Abs of int64            (* absolute physical address *)
  | Based of int * int64    (* [xN, #offset] *)

type t =
  | Mrs of int * Sysreg.access   (* xN := sysreg *)
  | Msr of Sysreg.access * operand
  | Hvc of int                   (* hypervisor call, 16-bit immediate *)
  | Svc of int
  | Smc of int
  | Eret
  | Ldr of int * addr            (* xN := mem64[addr] *)
  | Str of int * addr            (* mem64[addr] := xN *)
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
  | Tlbi_vmalls12e1              (* invalidate stage-1+2 EL1 translations *)
  | Tlbi_alle2                   (* invalidate EL2 translations *)
  | Wfi
  | Nop
  | B of int                     (* pc-relative branch, in words *)
  | Cbz of int * int             (* branch if xN = 0 *)
  | Cbnz of int * int            (* branch if xN <> 0 *)

let pp_operand ppf = function
  | Imm i -> Fmt.pf ppf "#0x%Lx" i
  | Reg n -> Fmt.pf ppf "x%d" n

let pp_addr ppf = function
  | Abs a -> Fmt.pf ppf "[#0x%Lx]" a
  | Based (r, off) -> Fmt.pf ppf "[x%d, #0x%Lx]" r off

let pp ppf = function
  | Mrs (rt, a) -> Fmt.pf ppf "mrs x%d, %s" rt (Sysreg.access_name a)
  | Msr (a, v) -> Fmt.pf ppf "msr %s, %a" (Sysreg.access_name a) pp_operand v
  | Hvc imm -> Fmt.pf ppf "hvc #%d" imm
  | Svc imm -> Fmt.pf ppf "svc #%d" imm
  | Smc imm -> Fmt.pf ppf "smc #%d" imm
  | Eret -> Fmt.string ppf "eret"
  | Ldr (rt, a) -> Fmt.pf ppf "ldr x%d, %a" rt pp_addr a
  | Str (rt, a) -> Fmt.pf ppf "str x%d, %a" rt pp_addr a
  | Mov (rd, v) -> Fmt.pf ppf "mov x%d, %a" rd pp_operand v
  | Add (rd, rn, v) -> Fmt.pf ppf "add x%d, x%d, %a" rd rn pp_operand v
  | Sub (rd, rn, v) -> Fmt.pf ppf "sub x%d, x%d, %a" rd rn pp_operand v
  | And (rd, rn, v) -> Fmt.pf ppf "and x%d, x%d, %a" rd rn pp_operand v
  | Orr (rd, rn, v) -> Fmt.pf ppf "orr x%d, x%d, %a" rd rn pp_operand v
  | Eor (rd, rn, v) -> Fmt.pf ppf "eor x%d, x%d, %a" rd rn pp_operand v
  | Lsl (rd, rn, s) -> Fmt.pf ppf "lsl x%d, x%d, #%d" rd rn s
  | Lsr (rd, rn, s) -> Fmt.pf ppf "lsr x%d, x%d, #%d" rd rn s
  | Isb -> Fmt.string ppf "isb"
  | Dsb -> Fmt.string ppf "dsb sy"
  | Tlbi_vmalls12e1 -> Fmt.string ppf "tlbi vmalls12e1"
  | Tlbi_alle2 -> Fmt.string ppf "tlbi alle2"
  | Wfi -> Fmt.string ppf "wfi"
  | Nop -> Fmt.string ppf "nop"
  | B off -> Fmt.pf ppf "b .%+d" off
  | Cbz (rt, off) -> Fmt.pf ppf "cbz x%d, .%+d" rt off
  | Cbnz (rt, off) -> Fmt.pf ppf "cbnz x%d, .%+d" rt off

let to_string i = Fmt.str "%a" pp i

(* Does this instruction access a system register, and how?  Used by the
   trap router and the paravirtualization rewriter. *)
type sysreg_use =
  | No_sysreg
  | Read_sysreg of Sysreg.access
  | Write_sysreg of Sysreg.access

let sysreg_use = function
  | Mrs (_, a) -> Read_sysreg a
  | Msr (a, _) -> Write_sysreg a
  | _ -> No_sysreg

(* Rendered texts by instruction, per domain: a checked CPU's trail shows
   the same few trapping instructions again and again, and [to_string]
   is a pure function of the instruction, so each is rendered once.
   Bounded: emptied when it reaches [rendered_cap] instructions. *)
let rendered_cap = 1024
let rendered = Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let render insn =
  let texts = Domain.DLS.get rendered in
  match Hashtbl.find texts insn with
  | text -> text
  | exception Not_found ->
    let text = to_string insn in
    if Hashtbl.length texts >= rendered_cap then Hashtbl.reset texts;
    Hashtbl.add texts insn text;
    text
