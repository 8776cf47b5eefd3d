(* Process state: the parts of PSTATE the exception model needs. *)

type el = EL0 | EL1 | EL2

let el_name = function EL0 -> "EL0" | EL1 -> "EL1" | EL2 -> "EL2"

let el_level = function EL0 -> 0 | EL1 -> 1 | EL2 -> 2

let compare_el a b = Int.compare (el_level a) (el_level b)

(* Encoding of PSTATE.EL as read through CurrentEL (bits [3:2]). *)
let currentel_bits = function EL0 -> 0L | EL1 -> 4L | EL2 -> 8L

type t = {
  el : el;
  sp_sel : bool;   (* true: SP_ELx, false: SP_EL0 *)
  irq_masked : bool;  (* PSTATE.I *)
  fiq_masked : bool;  (* PSTATE.F *)
  nzcv : int;      (* condition flags, bits [3:0] = N Z C V *)
}

let reset = { el = EL2; sp_sel = true; irq_masked = true; fiq_masked = true; nzcv = 0 }

(* Every PSTATE value is one of 3 ELs x 2 stack selections x 4 DAIF
   masks x 16 NZCV settings, so all 384 are built once here and shared:
   exception entry and return pick a record from this table instead of
   allocating one.  The records are immutable, so sharing is
   unobservable.
   domain-safety: allowlisted global — read-only after module load. *)
let table_slot ~el ~sp_sel ~irq ~fiq ~nzcv =
  (((((el_level el * 2) + Bool.to_int sp_sel) * 2 + Bool.to_int irq) * 2)
   + Bool.to_int fiq)
  * 16
  + (nzcv land 0xf)

let table : t option array =
  Array.init (3 * 2 * 64) (fun i ->
      Some
        {
          el = (match i / 128 with 0 -> EL0 | 1 -> EL1 | _ -> EL2);
          sp_sel = (i / 64) land 1 = 1;
          irq_masked = (i / 32) land 1 = 1;
          fiq_masked = (i / 16) land 1 = 1;
          nzcv = i land 0xf;
        })

(* [reset] at [el]: handler mode, interrupts masked, flags clear. *)
let at el =
  Option.get
    table.(table_slot ~el ~sp_sel:true ~irq:true ~fiq:true ~nzcv:0)

(* SPSR-style encoding used when PSTATE is saved on exception entry.
   M[3:0] selects the EL and stack pointer; DAIF occupy bits [9:6].
   Every field sits below bit 32, so the encoding fits an [int]. *)
let spsr_bits t =
  let m =
    match (t.el, t.sp_sel) with
    | EL0, _ -> 0
    | EL1, false -> 4
    | EL1, true -> 5
    | EL2, false -> 8
    | EL2, true -> 9
  in
  m
  lor (if t.irq_masked then 0x80 else 0)
  lor (if t.fiq_masked then 0x40 else 0)
  lor ((t.nzcv land 0xf) lsl 28)

let to_spsr t = Int64.of_int (spsr_bits t)

let of_spsr_bits v =
  let mode =
    match v land 0xf with
    | 0 -> Some (EL0, false)
    | 4 -> Some (EL1, false)
    | 5 -> Some (EL1, true)
    | 8 -> Some (EL2, false)
    | 9 -> Some (EL2, true)
    | _ -> None
  in
  match mode with
  | None -> None
  | Some (el, sp_sel) ->
    table.(table_slot ~el ~sp_sel ~irq:(v land 0x80 <> 0)
             ~fiq:(v land 0x40 <> 0) ~nzcv:((v lsr 28) land 0xf))

(* Only bits [31:0] carry fields, and [Int64.to_int] keeps them. *)
let of_spsr_opt v = of_spsr_bits (Int64.to_int v)

let of_spsr v =
  match of_spsr_opt v with
  | Some t -> t
  | None -> invalid_arg "Pstate.of_spsr: illegal mode bits"

let pp ppf t =
  Fmt.pf ppf "%s%s%s%s" (el_name t.el)
    (if t.sp_sel then "h" else "t")
    (if t.irq_masked then " I" else "")
    (if t.fiq_masked then " F" else "")
