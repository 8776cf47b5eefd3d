(* Tests for the ARM architecture model: PSTATE, HCR, the system-register
   database, syndrome encoding, and A64 instruction encoding. *)

module Sysreg = Arm.Sysreg
module Pstate = Arm.Pstate
module Hcr = Arm.Hcr
module Exn = Arm.Exn
module Insn = Arm.Insn
module Encode = Arm.Encode

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- PSTATE --- *)

let pstate_gen =
  QCheck.Gen.(
    let* el = oneofl [ Pstate.EL0; Pstate.EL1; Pstate.EL2 ] in
    let* sp_sel = bool in
    let* irq_masked = bool in
    let* fiq_masked = bool in
    let* nzcv = int_bound 15 in
    return
      {
        Pstate.el;
        sp_sel = (if el = Pstate.EL0 then false else sp_sel);
        irq_masked;
        fiq_masked;
        nzcv;
      })

let pstate_arb = QCheck.make ~print:(Fmt.str "%a" Pstate.pp) pstate_gen

let test_spsr_roundtrip =
  QCheck.Test.make ~count:500 ~name:"pstate: SPSR encode/decode roundtrip"
    pstate_arb (fun p -> Pstate.of_spsr (Pstate.to_spsr p) = p)

let test_currentel_bits () =
  check Alcotest.int64 "EL0" 0L (Pstate.currentel_bits Pstate.EL0);
  check Alcotest.int64 "EL1" 4L (Pstate.currentel_bits Pstate.EL1);
  check Alcotest.int64 "EL2" 8L (Pstate.currentel_bits Pstate.EL2)

let test_el_order () =
  check Alcotest.bool "EL0 < EL1" true (Pstate.compare_el Pstate.EL0 Pstate.EL1 < 0);
  check Alcotest.bool "EL1 < EL2" true (Pstate.compare_el Pstate.EL1 Pstate.EL2 < 0)

(* --- HCR --- *)

let hcr_bits_gen =
  QCheck.Gen.(
    let* bits =
      flatten_l
        (List.map
           (fun b -> map (fun on -> (b, on)) bool)
           [ Hcr.vm; Hcr.imo; Hcr.fmo; Hcr.twi; Hcr.tsc; Hcr.tvm; Hcr.tge;
             Hcr.trvm; Hcr.e2h; Hcr.nv; Hcr.nv1; Hcr.nv2 ])
    in
    return
      (List.fold_left (fun acc (b, on) -> if on then Hcr.set acc b else acc) 0L bits))

let test_hcr_roundtrip =
  QCheck.Test.make ~count:500 ~name:"hcr: encode/decode roundtrip"
    (QCheck.make ~print:Int64.to_string hcr_bits_gen) (fun v ->
      Hcr.encode (Hcr.decode v) = v)

let test_hcr_positions () =
  (* the bits the paper's mechanisms hinge on, per the ARM ARM *)
  check Alcotest.int64 "TGE is bit 27" (Int64.shift_left 1L 27) Hcr.tge;
  check Alcotest.int64 "TVM is bit 26" (Int64.shift_left 1L 26) Hcr.tvm;
  check Alcotest.int64 "E2H is bit 34" (Int64.shift_left 1L 34) Hcr.e2h;
  check Alcotest.int64 "NV is bit 42" (Int64.shift_left 1L 42) Hcr.nv;
  check Alcotest.int64 "NV1 is bit 43" (Int64.shift_left 1L 43) Hcr.nv1;
  check Alcotest.int64 "NV2 is bit 45" (Int64.shift_left 1L 45) Hcr.nv2

(* --- system-register database --- *)

let test_encodings_unique () =
  let seen = Hashtbl.create 128 in
  List.iter
    (fun r ->
      let e = Sysreg.enc r in
      (match Hashtbl.find_opt seen e with
       | Some other ->
         Alcotest.failf "duplicate encoding for %s and %s" (Sysreg.name r)
           (Sysreg.name other)
       | None -> ());
      Hashtbl.replace seen e r)
    Sysreg.all

let test_of_enc_inverse () =
  List.iter
    (fun r ->
      match Sysreg.of_enc (Sysreg.enc r) with
      | Some r' when r' = r -> ()
      | _ -> Alcotest.failf "of_enc broken for %s" (Sysreg.name r))
    Sysreg.all

let test_names_unique () =
  let names = List.map Sysreg.name Sysreg.all in
  check Alcotest.int "no duplicate names"
    (List.length names)
    (List.length (List.sort_uniq String.compare names))

let test_table3_contents () =
  (* the paper's Table 3 lists 27 rows; TPIDR_EL2 appears twice, so the
     distinct register set has 26 members *)
  check Alcotest.int "Table 3 distinct registers" 26
    (List.length Sysreg.table3);
  check Alcotest.int "paper's row count including the TPIDR_EL2 repeat" 27
    (List.length Sysreg.table3 + 1);
  List.iter
    (fun r ->
      check Alcotest.bool
        (Sysreg.name r ^ " classified as VM register")
        true
        (Sysreg.neve_class r = Sysreg.NV_vm_reg))
    Sysreg.table3

let test_table4_contents () =
  (* row count discrepancy: see EXPERIMENTS.md "Tables 2-5" *)
  check Alcotest.int "Table 4 rows" 18 (List.length Sysreg.table4);
  check Alcotest.int "redirect group" 10 (List.length Sysreg.table4_redirect);
  check Alcotest.int "VHE redirect group" 2
    (List.length Sysreg.table4_redirect_vhe);
  check Alcotest.int "trap-on-write group" 4
    (List.length Sysreg.table4_trap_on_write);
  check Alcotest.int "redirect-or-trap group" 2
    (List.length Sysreg.table4_redirect_or_trap);
  (* each redirect target is the _EL1 register of the same name *)
  List.iter
    (fun r ->
      match Sysreg.neve_class r with
      | Sysreg.NV_redirect tgt | Sysreg.NV_redirect_vhe tgt ->
        let base n = Filename.chop_suffix n "_EL2" in
        check Alcotest.string
          (Sysreg.name r ^ " redirects to its _EL1 twin")
          (base (Sysreg.name r) ^ "_EL1")
          (Sysreg.name tgt)
      | _ -> ())
    (Sysreg.table4_redirect @ Sysreg.table4_redirect_vhe)

let test_table5_contents () =
  (* 6 single registers + 4 AP0R + 4 AP1R + 16 LR *)
  check Alcotest.int "Table 5 rows" 30 (List.length Sysreg.table5);
  List.iter
    (fun r ->
      check Alcotest.bool (Sysreg.name r ^ " traps on write") true
        (Sysreg.neve_class r = Sysreg.NV_trap_on_write);
      check Alcotest.bool (Sysreg.name r ^ " is a GIC register") true
        (Sysreg.is_gic_ich r))
    Sysreg.table5

let test_vncr_offsets () =
  let offsets = List.filter_map Sysreg.vncr_offset Sysreg.all in
  check Alcotest.int "every page-resident register has a unique offset"
    (List.length offsets)
    (List.length (List.sort_uniq Int.compare offsets));
  List.iter
    (fun off ->
      check Alcotest.bool "offset is 8-byte aligned" true (off mod 8 = 0);
      check Alcotest.bool "offset fits in the page" true
        (off >= 0 && off + 8 <= Sysreg.page_size))
    offsets;
  (* every Table 3 register must have a slot; redirect registers must not *)
  List.iter
    (fun r ->
      check Alcotest.bool (Sysreg.name r ^ " has a slot") true
        (Sysreg.vncr_offset r <> None))
    Sysreg.table3;
  List.iter
    (fun r ->
      check Alcotest.bool (Sysreg.name r ^ " has no slot") true
        (Sysreg.vncr_offset r = None))
    Sysreg.table4_redirect

let test_min_el_sanity () =
  List.iter
    (fun r ->
      let n = Sysreg.name r in
      let el = Sysreg.min_el r in
      if Filename.check_suffix n "_EL2" then
        check Alcotest.bool (n ^ " is EL2") true (el = Pstate.EL2))
    Sysreg.all

let test_alias_encoding () =
  (* _EL12/_EL02 forms use op1=5 and are distinct from the direct form *)
  let a = Sysreg.el12 Sysreg.SCTLR_EL1 in
  let _, op1, _, _, _ = Sysreg.access_enc a in
  check Alcotest.int "EL12 op1" 5 op1;
  check Alcotest.string "EL12 name" "SCTLR_EL12" (Sysreg.access_name a);
  let b = Sysreg.el02 Sysreg.CNTV_CTL_EL0 in
  check Alcotest.string "EL02 name" "CNTV_CTL_EL02" (Sysreg.access_name b)

(* --- exception syndromes --- *)

let test_esr_roundtrip () =
  List.iter
    (fun ec ->
      let esr = Exn.esr ~ec ~iss:0x1234 in
      check Alcotest.bool (Exn.ec_name ec ^ " ec roundtrip") true
        (Exn.esr_ec esr = Some ec);
      check Alcotest.int (Exn.ec_name ec ^ " iss roundtrip") 0x1234
        (Exn.esr_iss esr))
    [ Exn.EC_wfx; Exn.EC_svc64; Exn.EC_hvc64; Exn.EC_smc64; Exn.EC_sysreg;
      Exn.EC_eret; Exn.EC_iabt_lower; Exn.EC_dabt_lower ]

let sysreg_arb =
  QCheck.make
    ~print:(fun r -> Sysreg.name r)
    QCheck.Gen.(oneofl Sysreg.all)

let test_sysreg_iss_roundtrip =
  QCheck.Test.make ~count:500 ~name:"exn: trapped-access ISS roundtrip"
    QCheck.(triple sysreg_arb (int_bound 30) bool)
    (fun (reg, rt, is_read) ->
      let access = Sysreg.direct reg in
      let iss = Exn.sysreg_iss ~access ~rt ~is_read in
      let d = Exn.decode_sysreg_iss iss in
      d.Exn.ds_enc = Sysreg.access_enc access
      && d.Exn.ds_rt = rt && d.Exn.ds_is_read = is_read)

(* --- A64 encoding --- *)

let test_encode_roundtrip_all_sysregs () =
  List.iter
    (fun r ->
      let mrs = Insn.Mrs (3, Sysreg.direct r) in
      if not (Encode.roundtrips mrs) then
        Alcotest.failf "MRS roundtrip failed for %s" (Sysreg.name r);
      let msr = Insn.Msr (Sysreg.direct r, Insn.Reg 4) in
      if not (Encode.roundtrips msr) then
        Alcotest.failf "MSR roundtrip failed for %s" (Sysreg.name r))
    Sysreg.all

let test_encode_roundtrip_misc () =
  List.iter
    (fun i ->
      check Alcotest.bool (Insn.to_string i ^ " roundtrips") true
        (Encode.roundtrips i))
    [ Insn.Hvc 0; Insn.Hvc 0xffff; Insn.Svc 7; Insn.Smc 1; Insn.Eret;
      Insn.Nop; Insn.Isb; Insn.Dsb;
      Insn.Ldr (5, Insn.Based (28, 0x18L));
      Insn.Str (0, Insn.Based (1, 0x7f8L));
      Insn.Mov (9, Insn.Imm 0xbeefL) ]

let test_encode_el12_roundtrip () =
  List.iter
    (fun r ->
      let i = Insn.Mrs (7, Sysreg.el12 r) in
      if not (Encode.roundtrips i) then
        Alcotest.failf "EL12 roundtrip failed for %s" (Sysreg.name r))
    Hyp.Reglists.el12_capable

let test_decode_unknown () =
  match Encode.decode 0x12345678 with
  | Encode.D_unknown w -> check Alcotest.int "word preserved" 0x12345678 w
  | Encode.D_insn i -> Alcotest.failf "decoded garbage as %s" (Insn.to_string i)

let test_hvc_encoding_value () =
  (* hvc #0 is 0xd4000002 per the ARM ARM *)
  check Alcotest.int "hvc #0" 0xd4000002 (Encode.encode (Insn.Hvc 0));
  check Alcotest.int "eret" 0xd69f03e0 (Encode.encode Insn.Eret);
  check Alcotest.int "nop" 0xd503201f (Encode.encode Insn.Nop)

(* --- the dense register index --- *)

let test_index_bijective () =
  check Alcotest.int "count = |all|" Sysreg.count (List.length Sysreg.all);
  let seen = Array.make Sysreg.count false in
  List.iter
    (fun r ->
      let i = Sysreg.index r in
      if i < 0 || i >= Sysreg.count then
        Alcotest.failf "%s: index %d out of range" (Sysreg.name r) i;
      if seen.(i) then Alcotest.failf "%s: index %d collides" (Sysreg.name r) i;
      seen.(i) <- true;
      if Sysreg.of_index i <> r then
        Alcotest.failf "%s: of_index does not invert index" (Sysreg.name r))
    Sysreg.all;
  Array.iteri
    (fun i covered ->
      if not covered then Alcotest.failf "index %d names no register" i)
    seen

let test_index_vncr_agreement () =
  List.iter
    (fun r ->
      check Alcotest.bool (Sysreg.name r)
        (Sysreg.vncr_offset r <> None)
        (Sysreg.has_vncr_offset r))
    Sysreg.all

(* --- the array-backed register file, against a naive model ---

   The model is the obvious hashtable implementation (what the file
   replaced); a long deterministic op sequence must be observationally
   identical through read and dump. *)

module SF = Arm.Sysreg_file

let test_sysreg_file_model () =
  let file = SF.create () in
  let model = Hashtbl.create 256 in
  let dirty = Hashtbl.create 256 in
  let model_reset () =
    Hashtbl.reset model;
    Hashtbl.reset dirty;
    List.iter (fun r -> Hashtbl.replace model r (SF.reset_value r)) Sysreg.all
  in
  let model_dump () =
    List.filter_map
      (fun r ->
        let v = Hashtbl.find model r in
        if Hashtbl.mem dirty r && v <> 0L then Some (r, v) else None)
      Sysreg.all
  in
  model_reset ();
  let state = ref 123456789 in
  let rand n =
    state := ((!state * 1103515245) + 12345) land 0x3fff_ffff;
    !state mod n
  in
  for _ = 1 to 20_000 do
    let r = Sysreg.of_index (rand Sysreg.count) in
    match rand 100 with
    | k when k < 45 ->
      let v = if rand 8 = 0 then 0L else Int64.of_int (1 + rand 1_000_000) in
      SF.write file r v;
      if not (Sysreg.read_only r) then begin
        Hashtbl.replace model r v;
        Hashtbl.replace dirty r ()
      end
    | k when k < 70 ->
      let v = Int64.of_int (rand 1_000_000) in
      SF.hw_write file r v;
      Hashtbl.replace model r v;
      Hashtbl.replace dirty r ()
    | k when k < 96 ->
      check Alcotest.int64 (Sysreg.name r) (Hashtbl.find model r)
        (SF.read file r)
    | 96 ->
      SF.reset file;
      model_reset ()
    | _ ->
      let d = SF.dump file and md = model_dump () in
      check Alcotest.int "dump length" (List.length md) (List.length d);
      List.iter2
        (fun (mr, mv) (fr, fv) ->
          if mr <> fr then
            Alcotest.failf "dump order: model %s, file %s" (Sysreg.name mr)
              (Sysreg.name fr);
          check Alcotest.int64 (Sysreg.name mr) mv fv)
        md d
  done

let test_copy_indices_matches_copy () =
  let src = SF.create () and a = SF.create () and b = SF.create () in
  List.iteri
    (fun i r -> SF.hw_write src r (Int64.of_int ((i * 37) + 1)))
    Sysreg.all;
  let regs = Hyp.Reglists.el1_state in
  SF.copy ~src ~dst:a regs;
  SF.copy_indices ~src ~dst:b (Hyp.Reglists.index_array regs);
  List.iter
    (fun r ->
      check Alcotest.int64 (Sysreg.name r) (SF.read a r) (SF.read b r))
    Sysreg.all

(* --- the register database, pinned ---

   One line per register of [Sysreg.all], in order, with every fact the
   model derives from it, folded into an FNV-1a digest.  A change to the
   database's representation must leave the digest unchanged. *)

let el_string = function
  | Pstate.EL0 -> "EL0"
  | Pstate.EL1 -> "EL1"
  | Pstate.EL2 -> "EL2"

let class_string = function
  | Sysreg.NV_vm_reg -> "vm"
  | Sysreg.NV_redirect r -> "redirect " ^ Sysreg.name r
  | Sysreg.NV_redirect_vhe r -> "redirect-vhe " ^ Sysreg.name r
  | Sysreg.NV_trap_on_write -> "trap-on-write"
  | Sysreg.NV_redirect_or_trap r -> "redirect-or-trap " ^ Sysreg.name r
  | Sysreg.NV_timer_trap -> "timer-trap"
  | Sysreg.NV_none -> "none"

(* The register's own facts, defined for out-of-range banked members
   too. *)
let reg_facts r =
  let op0, op1, crn, crm, op2 = Sysreg.enc r in
  Printf.sprintf "%s (%d,%d,%d,%d,%d) %s %s ro=%b" (Sysreg.name r) op0 op1
    crn crm op2 (el_string (Sysreg.min_el r))
    (class_string (Sysreg.neve_class r))
    (Sysreg.read_only r)

let opt_name = function None -> "-" | Some r -> Sysreg.name r

let register_line r =
  Printf.sprintf "%d %s vncr=%s ctx=%d twin=%s el1=%s\n" (Sysreg.index r)
    (reg_facts r)
    (match Sysreg.vncr_offset r with None -> "-" | Some o -> string_of_int o)
    (Hyp.Reglists.ctx_slot r)
    (opt_name (Arm.Trap_rules.vhe_el2_twin r))
    (opt_name (Arm.Trap_rules.el1_form_of_el2 r))

let test_register_digest () =
  let digest =
    List.fold_left
      (fun h r -> Shard.fnv1a_64 ~init:h (register_line r))
      0xcbf29ce484222325L Sysreg.all
  in
  check Alcotest.int "registers" 154 (List.length Sysreg.all);
  check Alcotest.string "database digest" "197ca06c29b02b81"
    (Printf.sprintf "%016Lx" digest)

(* Banked members past the implemented ones keep the formula names and
   encodings: error messages and decoders print them.  The model holds no
   such register, so none has a deferred-page offset or a context slot:
   [index] would alias it onto a neighbour's (DBGWCR6_EL1 onto
   SCTLR_EL1's page offset, ICH_LR16/17_EL2 onto VSESR's and VDISR's
   context slots). *)
let test_out_of_range_banked () =
  List.iter
    (fun (r, want) ->
      check Alcotest.string want want (reg_facts r);
      let name = Sysreg.name r in
      check Alcotest.(option int) (name ^ " page offset") None
        (Sysreg.vncr_offset r);
      check Alcotest.bool (name ^ " has no page offset") false
        (Sysreg.has_vncr_offset r);
      match Hyp.Reglists.ctx_slot r with
      | slot -> Alcotest.failf "%s has context slot %d" name slot
      | exception Invalid_argument msg ->
        check Alcotest.string (name ^ " ctx_slot error")
          ("Reglists.ctx_slot: " ^ name) msg)
    [ (Sysreg.ICH_LR_EL2 16,
       "ICH_LR16_EL2 (3,4,12,13,8) EL2 trap-on-write ro=false");
      (Sysreg.ICH_LR_EL2 17,
       "ICH_LR17_EL2 (3,4,12,13,9) EL2 trap-on-write ro=false");
      (Sysreg.ICH_LR_EL2 18,
       "ICH_LR18_EL2 (3,4,12,13,10) EL2 trap-on-write ro=false");
      (Sysreg.PMEVCNTR_EL0 6, "PMEVCNTR6_EL0 (3,3,14,8,6) EL0 none ro=false");
      (Sysreg.DBGBVR_EL1 9, "DBGBVR9_EL1 (2,0,0,9,4) EL1 none ro=false");
      (Sysreg.DBGWCR_EL1 6, "DBGWCR6_EL1 (2,0,0,6,7) EL1 none ro=false");
      (Sysreg.ICH_AP1R_EL2 4,
       "ICH_AP1R4_EL2 (3,4,12,9,4) EL2 trap-on-write ro=false") ]

(* The E2H pairing is stated once, in [Trap_rules]; the world-switch
   lists that name its EL1 and EL0 sides must agree with it, and every
   access form a hypervisor issues must decode back from its encoding. *)
let test_e2h_pairs_and_aliases () =
  let module TR = Arm.Trap_rules in
  let module RL = Hyp.Reglists in
  List.iter
    (fun r ->
      match TR.vhe_el2_twin r with
      | Some el2 ->
        if TR.el1_form_of_el2 el2 <> Some r then
          Alcotest.failf "el1_form_of_el2 %s <> %s" (Sysreg.name el2)
            (Sysreg.name r)
      | None -> ())
    Sysreg.all;
  List.iter
    (fun r ->
      match TR.el1_form_of_el2 r with
      | Some el1 ->
        if TR.vhe_el2_twin el1 <> Some r then
          Alcotest.failf "vhe_el2_twin %s <> %s" (Sysreg.name el1)
            (Sysreg.name r)
      | None -> ())
    Sysreg.all;
  let paired el =
    List.filter
      (fun r -> Sysreg.min_el r = el && TR.vhe_el2_twin r <> None)
      Sysreg.all
  in
  let same_set what a b =
    check
      Alcotest.(list string)
      what
      (List.sort compare (List.map Sysreg.name a))
      (List.sort compare (List.map Sysreg.name b))
  in
  same_set "el12_capable = paired EL1 registers" (paired Pstate.EL1)
    RL.el12_capable;
  (* E2H also pairs the EL0 physical timer with CNTHP; the world switch
     moves only the VM's virtual timer *)
  same_set "timer_el0_state + CNTP = paired EL0 registers"
    (paired Pstate.EL0)
    (RL.timer_el0_state @ [ Sysreg.CNTP_CTL_EL0; Sysreg.CNTP_CVAL_EL0 ]);
  List.iter
    (fun a ->
      if Sysreg.access_of_enc (Sysreg.access_enc a) <> Some a then
        Alcotest.failf "access_of_enc does not invert access_enc for %s"
          (Sysreg.access_name a))
    (List.map Sysreg.direct Sysreg.all
     @ List.map Sysreg.el12 RL.el12_capable
     @ List.map Sysreg.el02 RL.timer_el0_state);
  (* op1=5 with CRn=15 names no register at op1=0, 3 or 5 *)
  check Alcotest.bool "unmodelled op1=5 encoding" true
    (Sysreg.access_of_enc (3, 5, 15, 0, 0) = None)

let suite =
  [
    ("pstate: CurrentEL bits", `Quick, test_currentel_bits);
    ("pstate: EL ordering", `Quick, test_el_order);
    qtest test_spsr_roundtrip;
    qtest test_hcr_roundtrip;
    ("hcr: architectural bit positions", `Quick, test_hcr_positions);
    ("sysreg: encodings are unique", `Quick, test_encodings_unique);
    ("sysreg: of_enc inverts enc", `Quick, test_of_enc_inverse);
    ("sysreg: names are unique", `Quick, test_names_unique);
    ("sysreg: Table 3 classification", `Quick, test_table3_contents);
    ("sysreg: Table 4 classification", `Quick, test_table4_contents);
    ("sysreg: Table 5 classification", `Quick, test_table5_contents);
    ("sysreg: deferred-page offsets", `Quick, test_vncr_offsets);
    ("sysreg: min_el sanity", `Quick, test_min_el_sanity);
    ("sysreg: alias encodings", `Quick, test_alias_encoding);
    ("exn: ESR roundtrip", `Quick, test_esr_roundtrip);
    qtest test_sysreg_iss_roundtrip;
    ("encode: MRS/MSR roundtrip for every register", `Quick,
     test_encode_roundtrip_all_sysregs);
    ("encode: misc instructions roundtrip", `Quick, test_encode_roundtrip_misc);
    ("encode: _EL12 forms roundtrip", `Quick, test_encode_el12_roundtrip);
    ("encode: unknown words preserved", `Quick, test_decode_unknown);
    ("encode: architectural opcode values", `Quick, test_hvc_encoding_value);
    ("sysreg: dense index is a bijection", `Quick, test_index_bijective);
    ("sysreg: has_vncr_offset agrees with vncr_offset", `Quick,
     test_index_vncr_agreement);
    ("sysreg-file: equivalent to the hashtable model", `Quick,
     test_sysreg_file_model);
    ("sysreg-file: copy_indices == copy", `Quick,
     test_copy_indices_matches_copy);
    ("sysreg: database digest", `Quick, test_register_digest);
    ("sysreg: out-of-range banked members", `Quick,
     test_out_of_range_banked);
    ("sysreg: E2H pairs and alias encodings agree", `Quick,
     test_e2h_pairs_and_aliases);
  ]
