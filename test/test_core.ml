(* Tests for NEVE itself: VNCR_EL2, the deferred access page, the
   classification queries, and the recursive VNCR translation. *)

module Sysreg = Arm.Sysreg
module Vncr = Core.Vncr
module Page = Core.Deferred_page
module Classify = Core.Classify

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- VNCR_EL2 (Table 2) --- *)

let test_vncr_fields () =
  let v = Vncr.v ~baddr:0x4_5000L ~enable:true in
  let e = Vncr.encode v in
  check Alcotest.bool "Enable is bit 0" true (Int64.logand e 1L = 1L);
  check Alcotest.int64 "BADDR occupies [52:12]" 0x4_5000L
    (Arm.Trap_rules.vncr_baddr e);
  check Alcotest.bool "decode inverts encode" true (Vncr.decode e = v)

let test_vncr_alignment_mandated () =
  (* Section 6.3: the architecture mandates a page-aligned BADDR *)
  match Vncr.v ~baddr:0x4_5008L ~enable:true with
  | _ -> Alcotest.fail "unaligned BADDR must be rejected"
  | exception Vncr.Invalid_vncr _ -> ()

let test_vncr_baddr_range () =
  (* bit 52 is BADDR's top bit: accepted, encoded and decoded back, and
     read the same way by the router that redirects accesses *)
  let top = 0x10_0000_0000_0000L in
  let e = Vncr.encode (Vncr.v ~baddr:top ~enable:true) in
  check Alcotest.int64 "bit 52 encoded" (Int64.logor top 1L) e;
  check Alcotest.int64 "bit 52 decoded" top (Vncr.decode e).Vncr.baddr;
  check Alcotest.int64 "router reads the same BADDR" top
    (Arm.Trap_rules.vncr_baddr e);
  match Vncr.v ~baddr:0x20_0000_0000_0000L ~enable:true with
  | _ -> Alcotest.fail "BADDR above bit 52 must be rejected"
  | exception Vncr.Invalid_vncr _ -> ()

let vncr_arb =
  QCheck.make
    ~print:(fun (p, e) -> Fmt.str "page=%d enable=%b" p e)
    QCheck.Gen.(pair (int_bound 0xfffff) bool)

let test_vncr_roundtrip =
  QCheck.Test.make ~count:300 ~name:"vncr: encode/decode roundtrip" vncr_arb
    (fun (pageno, enable) ->
      let baddr = Int64.mul (Int64.of_int pageno) 4096L in
      let v = Vncr.v ~baddr ~enable in
      Vncr.decode (Vncr.encode v) = v)

(* --- deferred access page --- *)

let fresh_page () =
  let mem = Arm.Memory.create () in
  (mem, Page.create mem ~base:0x8000L)

let test_page_alignment () =
  let mem = Arm.Memory.create () in
  match Page.create mem ~base:0x8008L with
  | _ -> Alcotest.fail "unaligned page base must be rejected"
  | exception Invalid_argument _ -> ()

let test_page_slots () =
  let _, page = fresh_page () in
  Page.write page Sysreg.HCR_EL2 0x1234L;
  check Alcotest.int64 "write/read" 0x1234L (Page.read page Sysreg.HCR_EL2);
  (* distinct registers use distinct slots *)
  Page.write page Sysreg.VTTBR_EL2 0x5678L;
  check Alcotest.int64 "no aliasing" 0x1234L (Page.read page Sysreg.HCR_EL2)

let test_page_unmapped_register () =
  let _, page = fresh_page () in
  match Page.read page Sysreg.VBAR_EL2 with
  | _ -> Alcotest.fail "redirect-class register has no slot"
  | exception Page.Unmapped_register _ -> ()

let test_page_populate_drain_roundtrip () =
  let _, page = fresh_page () in
  let values = Hashtbl.create 64 in
  List.iteri
    (fun i r -> Hashtbl.replace values r (Int64.of_int (i * 7)))
    Sysreg.vncr_layout;
  Page.populate page ~read_virtual:(fun r -> Hashtbl.find values r);
  let out = Hashtbl.create 64 in
  Page.drain page ~write_virtual:(fun r v -> Hashtbl.replace out r v);
  List.iter
    (fun r ->
      check Alcotest.int64 (Sysreg.name r) (Hashtbl.find values r)
        (Hashtbl.find out r))
    Sysreg.vncr_layout

(* --- classification queries --- *)

let test_behaviour_matches_tables () =
  check Alcotest.bool "HCR deferred" true
    (Classify.behaviour ~guest_vhe:false Sysreg.HCR_EL2 = Classify.Deferred);
  check Alcotest.bool "VBAR redirected" true
    (Classify.behaviour ~guest_vhe:false Sysreg.VBAR_EL2
     = Classify.Redirected Sysreg.VBAR_EL1);
  check Alcotest.bool "CPTR cached/trapped" true
    (Classify.behaviour ~guest_vhe:false Sysreg.CPTR_EL2
     = Classify.Cached_read_trap_write);
  check Alcotest.bool "TCR_EL2 redirects for VHE" true
    (Classify.behaviour ~guest_vhe:true Sysreg.TCR_EL2
     = Classify.Redirected Sysreg.TCR_EL1);
  check Alcotest.bool "TCR_EL2 traps writes for non-VHE" true
    (Classify.behaviour ~guest_vhe:false Sysreg.TCR_EL2
     = Classify.Cached_read_trap_write);
  check Alcotest.bool "EL2 timer always traps" true
    (Classify.behaviour ~guest_vhe:true Sysreg.CNTHP_CTL_EL2
     = Classify.Always_trap)

let test_redirected_pairs_wellformed () =
  List.iter
    (fun (el2r, twin) ->
      check Alcotest.bool
        (Sysreg.name el2r ^ " twin is an EL1 register")
        true
        (Sysreg.min_el twin <> Arm.Pstate.EL2))
    Classify.redirected_pairs;
  check Alcotest.int "redirect pair count (10 + 2 VHE + 2 redirect-or-trap)"
    14
    (List.length Classify.redirected_pairs)

let test_eliminated_traps () =
  let accesses =
    [ (Sysreg.HCR_EL2, false);       (* deferred: eliminated *)
      (Sysreg.VBAR_EL2, false);      (* redirected: eliminated *)
      (Sysreg.CPTR_EL2, true);       (* cached read: eliminated *)
      (Sysreg.CPTR_EL2, false);      (* trap-on-write: kept *)
      (Sysreg.CNTHP_CTL_EL2, true) ] (* timer: kept *)
  in
  check Alcotest.int "3 of 5 eliminated" 3
    (Classify.eliminated_traps ~guest_vhe:false accesses)

(* --- NEVE with a VHE guest hypervisor --- *)

let test_neve_vhe_clears_nv1 () =
  (* a VHE guest hypervisor runs its kernel at vEL2, so NV1 stays clear *)
  let config = Hyp.Config.v ~guest_vhe:true Hyp.Config.Hw_neve in
  let cpu = Arm.Cpu.create ~features:(Hyp.Config.hw_features config) () in
  let host = Hyp.Host_hyp.create cpu config Hyp.Host_hyp.Nested in
  let hcr = Arm.Hcr.decode (Hyp.Host_hyp.hcr_for host ~vel2:true) in
  check Alcotest.bool "NV2 set" true hcr.Arm.Hcr.h_nv2;
  check Alcotest.bool "NV1 clear for VHE" false hcr.Arm.Hcr.h_nv1

(* --- recursive virtualization (Section 6.2) --- *)

let test_recursive_vncr () =
  (* L1 wrote its virtual VNCR, pointing at an L1-physical page *)
  let virt = Vncr.v ~baddr:0x2_0000L ~enable:true in
  (match
     Vncr.recursive virt ~translate_ipa:(fun ipa ->
         Some (Int64.add ipa 0x1_0000_0000L))
   with
   | Some hw ->
     check Alcotest.int64 "BADDR translated" 0x1_0002_0000L hw.Vncr.baddr;
     check Alcotest.bool "enabled" true hw.Vncr.enable
   | None -> Alcotest.fail "translation should succeed");
  (* disabled virtual VNCR yields no hardware programming *)
  check Alcotest.bool "disabled -> None" true
    (Vncr.recursive (Vncr.decode 0L) ~translate_ipa:(fun ipa -> Some ipa)
     = None);
  check Alcotest.bool "untranslatable BADDR -> None" true
    (Vncr.recursive virt ~translate_ipa:(fun _ -> None) = None)

let suite =
  [
    ("vncr: Table 2 fields", `Quick, test_vncr_fields);
    ("vncr: alignment mandated", `Quick, test_vncr_alignment_mandated);
    ("vncr: BADDR range", `Quick, test_vncr_baddr_range);
    qtest test_vncr_roundtrip;
    ("page: base alignment", `Quick, test_page_alignment);
    ("page: slot isolation", `Quick, test_page_slots);
    ("page: unmapped registers rejected", `Quick, test_page_unmapped_register);
    ("page: populate/drain roundtrip", `Quick, test_page_populate_drain_roundtrip);
    ("classify: behaviours match the tables", `Quick, test_behaviour_matches_tables);
    ("classify: redirect pairs well-formed", `Quick, test_redirected_pairs_wellformed);
    ("classify: eliminated-trap counting", `Quick, test_eliminated_traps);
    ("neve: VHE clears NV1", `Quick, test_neve_vhe_clears_nv1);
    ("neve: recursive VNCR translation", `Quick, test_recursive_vncr);
  ]
