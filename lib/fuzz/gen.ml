(* Program generator for the differential fuzzer.

   The generator is the half of the oracle contract that keeps "the
   mechanisms must agree" true by construction: it only emits programs
   whose architectural outcome is defined identically under every column
   — encodable words, scratch-window memory accesses, no counter reads
   (cycle counts differ per mechanism by design), hvc immediates outside
   the paravirt operand protocol.  Within that envelope it is biased
   toward encodings that trap to EL2 somewhere, because those are the
   paths where trap-and-emulate, paravirt and NEVE take genuinely
   different routes to the same answer. *)

module Insn = Arm.Insn
module Sysreg = Arm.Sysreg
module Trap_rules = Arm.Trap_rules
module Config = Hyp.Config
module Paravirt = Hyp.Paravirt
module Rng = Fault.Plan.Rng

type rule =
  | R_access of Sysreg.access * bool
  | R_hvc
  | R_eret
  | R_smc

let rule_name = function
  | R_access (a, true) -> "mrs " ^ Sysreg.access_name a
  | R_access (a, false) -> "msr " ^ Sysreg.access_name a
  | R_hvc -> "hvc"
  | R_eret -> "eret"
  | R_smc -> "smc"

(* Cycle-dependent reads can never agree across mechanisms with different
   trap costs; the whole register is excluded from generation. *)
let excluded_reg r = Sysreg.name r = "CNTVCT_EL0"

(* The base address used only to *classify* routes (Defer vs Trap); the
   concrete value is irrelevant to the classification. *)
let probe_page_base = 0x8000L

let access_pool : (Sysreg.access * bool) array =
  Array.of_list
    (List.concat_map
       (fun a ->
         if excluded_reg a.Sysreg.reg then []
         else [ (a, true); (a, false) ])
       (Array.to_list Paravirt.forms))

let insn_of_access (a, is_read) ~rt =
  if is_read then Insn.Mrs (rt, a) else Insn.Msr (a, Insn.Reg rt)

let traps_under config insn =
  match Paravirt.target_route config ~page_base:probe_page_base insn with
  | Trap_rules.Trap_to_el2 _ -> true
  | _ -> false

let rules_for config =
  List.filter_map
    (fun (a, is_read) ->
      if traps_under config (insn_of_access (a, is_read) ~rt:0) then
        Some (R_access (a, is_read))
      else None)
    (Array.to_list access_pool)
  @ List.filter_map
      (fun (rule, insn) -> if traps_under config insn then Some rule else None)
      [ (R_hvc, Insn.Hvc 0); (R_eret, Insn.Eret); (R_smc, Insn.Smc 0) ]

(* domain-safety: allowlisted global — the dedup table is consumed at
   module load; the resulting list is immutable. *)
let registry =
  let seen = Hashtbl.create 512 in
  List.concat_map rules_for Config.all_nested
  |> List.filter (fun r ->
         let n = rule_name r in
         if Hashtbl.mem seen n then false
         else begin
           Hashtbl.add seen n ();
           true
         end)

let registry_size = List.length registry

(* domain-safety: allowlisted global — populated at module load,
   read-only afterwards. *)
let registry_names =
  let h = Hashtbl.create (2 * registry_size) in
  List.iter (fun r -> Hashtbl.replace h (rule_name r) ()) registry;
  h

type t = {
  rng : Rng.t;
  covered : (string, unit) Hashtbl.t;
  mutable queue : rule list;  (* registry rules not yet emitted *)
  forms_used : (string, unit) Hashtbl.t;
}

let create ~seed =
  {
    rng = Rng.make seed;
    covered = Hashtbl.create (2 * registry_size);
    queue = registry;
    forms_used = Hashtbl.create 16;
  }

let is_covered t rule = Hashtbl.mem t.covered (rule_name rule)
let covered_count t = Hashtbl.length t.covered

let insn_forms =
  [ "mrs"; "msr"; "hvc"; "svc"; "smc"; "eret"; "ldr"; "str"; "mov"; "add";
    "sub"; "b"; "cbz"; "cbnz" ]

let insn_form_total = List.length insn_forms
let insn_forms_used t =
  List.sort compare
    (Hashtbl.fold (fun k () acc -> k :: acc) t.forms_used [])

let note_form t f = Hashtbl.replace t.forms_used f ()

let note_rule t rule =
  if not (is_covered t rule) then Hashtbl.replace t.covered (rule_name rule) ()

(* Data registers: x0..x7.  x9/x10 are the simulator's scratch and
   data-move registers and x28 holds the shared-page base by the paravirt
   convention — generated code never writes any of them. *)
let reg t = Rng.int t.rng 8

(* Scratch memory window: all generated loads and stores land in
   [0x1000, 0x1800), far from program text, the vCPU context region and
   the deferred access page. *)
let scratch_base = 0x1000
let scratch_len = 0x800

let mem_addr t =
  Int64.of_int (scratch_base + (8 * Rng.int t.rng 0x40))

let mem_off t = Int64.of_int (8 * Rng.int t.rng 0x20)

let note_sysreg t (a, is_read) =
  note_form t (if is_read then "mrs" else "msr");
  let rule = R_access (a, is_read) in
  if Hashtbl.mem registry_names (rule_name rule) then note_rule t rule

let sysreg_snippet t =
  let pick =
    match t.queue with
    | [] -> None
    | rule :: rest ->
      t.queue <- rest;
      Some rule
  in
  match pick with
  | Some (R_access (a, is_read)) ->
    note_sysreg t (a, is_read);
    Prog.Straight [ insn_of_access (a, is_read) ~rt:(reg t) ]
  | Some R_hvc ->
    note_rule t R_hvc;
    note_form t "hvc";
    Prog.Straight [ Insn.Hvc (Rng.int t.rng 64) ]
  | Some R_eret ->
    note_rule t R_eret;
    note_form t "eret";
    Prog.Straight [ Insn.Eret ]
  | Some R_smc ->
    note_rule t R_smc;
    note_form t "smc";
    Prog.Straight [ Insn.Smc (Rng.int t.rng 4) ]
  | None ->
    let (a, is_read) =
      access_pool.(Rng.int t.rng (Array.length access_pool))
    in
    note_sysreg t (a, is_read);
    Prog.Straight [ insn_of_access (a, is_read) ~rt:(reg t) ]

let mem_snippet t =
  let base = reg t in
  let rt = reg t in
  let mov = Insn.Mov (base, Insn.Imm (mem_addr t)) in
  if Rng.bool t.rng then begin
    note_form t "mov";
    note_form t "ldr";
    Prog.Straight [ mov; Insn.Ldr (rt, Insn.Based (base, mem_off t)) ]
  end
  else begin
    note_form t "mov";
    note_form t "str";
    Prog.Straight [ mov; Insn.Str (rt, Insn.Based (base, mem_off t)) ]
  end

let alu_snippet t =
  match Rng.int t.rng 3 with
  | 0 ->
    note_form t "mov";
    Prog.Straight
      [ Insn.Mov (reg t, Insn.Imm (Int64.of_int (Rng.int t.rng 0x10000))) ]
  | 1 ->
    let op = if Rng.bool t.rng then "add" else "sub" in
    note_form t op;
    let rd = reg t and rn = reg t in
    let operand =
      if Rng.bool t.rng then Insn.Imm (Int64.of_int (Rng.int t.rng 0x1000))
      else Insn.Reg (reg t)
    in
    Prog.Straight
      [ (if op = "add" then Insn.Add (rd, rn, operand)
         else Insn.Sub (rd, rn, operand)) ]
  | _ ->
    note_form t "mov";
    Prog.Straight
      [ Insn.Mov (reg t, Insn.Imm (Int64.of_int (Rng.int t.rng 0x10000))) ]

let branch_snippet t =
  let skip = 1 + Rng.int t.rng 3 in
  match Rng.int t.rng 3 with
  | 0 ->
    note_form t "b";
    Prog.Skip (Prog.K_b, skip)
  | 1 ->
    note_form t "cbz";
    Prog.Skip (Prog.K_cbz (reg t), skip)
  | _ ->
    note_form t "cbnz";
    Prog.Skip (Prog.K_cbnz (reg t), skip)

let snippet t =
  match Rng.int t.rng 100 with
  | n when n < 60 -> sysreg_snippet t
  | n when n < 70 -> mem_snippet t
  | n when n < 82 -> alu_snippet t
  | n when n < 88 ->
    note_rule t R_hvc;
    note_form t "hvc";
    Prog.Straight [ Insn.Hvc (Rng.int t.rng 64) ]
  | n when n < 91 ->
    note_rule t R_smc;
    note_form t "smc";
    Prog.Straight [ Insn.Smc (Rng.int t.rng 4) ]
  | n when n < 93 ->
    note_form t "svc";
    Prog.Straight [ Insn.Svc (Rng.int t.rng 4) ]
  | n when n < 96 ->
    note_rule t R_eret;
    note_form t "eret";
    Prog.Straight [ Insn.Eret ]
  | _ -> branch_snippet t

let program t =
  let len = 4 + Rng.int t.rng 20 in
  List.init len (fun _ -> snippet t)
