(* Tests for the trap router — the architectural heart of the model.

   The four configurations of the paper are checked against the behaviour
   each section describes, including a table-driven sweep asserting that
   *every* register routes according to its NEVE classification. *)

module Sysreg = Arm.Sysreg
module Pstate = Arm.Pstate
module Hcr = Arm.Hcr
module TR = Arm.Trap_rules
module Insn = Arm.Insn
module Exn = Arm.Exn
module Features = Arm.Features

let check = Alcotest.check

let v8_0 = Features.v Features.V8_0
let v8_1 = Features.v Features.V8_1
let v8_3 = Features.v Features.V8_3
let v8_4 = Features.v Features.V8_4

let page = 0x5_0000L
let vncr_on = Int64.logor page 1L

let hcr_bits bits = Hcr.decode (List.fold_left Hcr.set 0L bits)

(* the HCR a host programs for a non-VHE / VHE guest hypervisor *)
let hcr_nv_nonvhe = hcr_bits [ Hcr.vm; Hcr.imo; Hcr.nv; Hcr.nv1; Hcr.tvm; Hcr.trvm ]
let hcr_nv_vhe = hcr_bits [ Hcr.vm; Hcr.imo; Hcr.nv ]
let hcr_nv2_nonvhe = hcr_bits [ Hcr.vm; Hcr.imo; Hcr.nv; Hcr.nv1; Hcr.nv2 ]
let hcr_nv2_vhe = hcr_bits [ Hcr.vm; Hcr.imo; Hcr.nv; Hcr.nv2 ]
let hcr_vm = hcr_bits [ Hcr.vm; Hcr.imo ]

let route ?(features = v8_3) ?(hcr = hcr_nv_nonvhe) ?(vncr = 0L)
    ?(el = Pstate.EL1) insn =
  TR.route features ~hcr ~vncr ~el insn

let is_trap = function TR.Trap_to_el2 _ -> true | _ -> false
let is_defer = function TR.Defer_to_memory _ -> true | _ -> false
let is_exec = function TR.Execute -> true | _ -> false

let mrs r = Insn.Mrs (0, Sysreg.direct r)
let msr r = Insn.Msr (Sysreg.direct r, Insn.Reg 0)

(* --- ARMv8.0: the crash case --- *)

let test_v80_el2_access_undef () =
  (* "attempts to change the register would cause an unexpected exception
     to the guest hypervisor executing in EL1" (Section 2) *)
  List.iter
    (fun r ->
      match route ~features:v8_0 ~hcr:hcr_vm (msr r) with
      | TR.Undef -> ()
      | a ->
        Alcotest.failf "%s should be UNDEFINED on v8.0, got %a" (Sysreg.name r)
          TR.pp_action a)
    [ Sysreg.HCR_EL2; Sysreg.VTTBR_EL2; Sysreg.VBAR_EL2; Sysreg.ICH_HCR_EL2 ]

let test_v80_eret_executes () =
  (* without NV, eret at EL1 is a normal exception return *)
  check Alcotest.bool "eret executes" true
    (is_exec (route ~features:v8_0 ~hcr:hcr_vm Insn.Eret))

(* --- ARMv8.1 VHE: E2H redirection at EL2 --- *)

let test_vhe_redirection_at_el2 () =
  let hcr = hcr_bits [ Hcr.e2h ] in
  (match route ~features:v8_1 ~hcr ~el:Pstate.EL2 (mrs Sysreg.SCTLR_EL1) with
   | TR.Execute_redirected a ->
     check Alcotest.string "SCTLR_EL1 -> SCTLR_EL2" "SCTLR_EL2"
       (Sysreg.access_name a)
   | a -> Alcotest.failf "expected redirection, got %a" TR.pp_action a);
  (* the _EL12 form reaches the real EL1 register *)
  match
    route ~features:v8_1 ~hcr ~el:Pstate.EL2
      (Insn.Mrs (0, Sysreg.el12 Sysreg.SCTLR_EL1))
  with
  | TR.Execute_redirected a ->
    check Alcotest.string "SCTLR_EL12 -> SCTLR_EL1" "SCTLR_EL1"
      (Sysreg.access_name a)
  | a -> Alcotest.failf "expected EL12 redirection, got %a" TR.pp_action a

let test_vhe_timer_redirection () =
  let hcr = hcr_bits [ Hcr.e2h ] in
  match route ~features:v8_1 ~hcr ~el:Pstate.EL2 (mrs Sysreg.CNTV_CTL_EL0) with
  | TR.Execute_redirected a ->
    check Alcotest.string "CNTV -> CNTHV" "CNTHV_CTL_EL2" (Sysreg.access_name a)
  | a -> Alcotest.failf "expected timer redirection, got %a" TR.pp_action a

let test_no_vhe_no_redirection () =
  check Alcotest.bool "no E2H: plain execution" true
    (is_exec (route ~features:v8_0 ~hcr:(hcr_bits []) ~el:Pstate.EL2
                (mrs Sysreg.SCTLR_EL1)))

(* --- ARMv8.3 NV --- *)

let test_v83_el2_access_traps () =
  List.iter
    (fun r ->
      check Alcotest.bool (Sysreg.name r ^ " traps") true
        (is_trap (route (msr r))))
    [ Sysreg.HCR_EL2; Sysreg.VTTBR_EL2; Sysreg.VBAR_EL2; Sysreg.ESR_EL2;
      Sysreg.ICH_LR_EL2 0; Sysreg.CNTHP_CTL_EL2; Sysreg.SP_EL1 ]

let test_v83_eret_traps () =
  match route Insn.Eret with
  | TR.Trap_to_el2 { entry = { Exn.ec = Exn.EC_eret; _ }; _ } -> ()
  | a -> Alcotest.failf "eret should trap with EC_eret, got %a" TR.pp_action a

let test_v83_currentel_disguise () =
  (* "it disguises the deprivileged execution by telling the guest
     hypervisor that it runs in EL2" (Section 2) *)
  match route (mrs Sysreg.CurrentEL) with
  | TR.Read_disguised v ->
    check Alcotest.int64 "CurrentEL reads as EL2"
      (Pstate.currentel_bits Pstate.EL2) v
  | a -> Alcotest.failf "expected disguise, got %a" TR.pp_action a

let test_v83_nonvhe_el1_access_traps () =
  (* a non-VHE guest hypervisor's EL1 accesses refer to the VM's state and
     are trapped with the existing v8.0 mechanisms (Section 4) *)
  List.iter
    (fun r ->
      check Alcotest.bool (Sysreg.name r ^ " write traps") true
        (is_trap (route (msr r)));
      check Alcotest.bool (Sysreg.name r ^ " read traps") true
        (is_trap (route (mrs r))))
    [ Sysreg.SCTLR_EL1; Sysreg.TTBR0_EL1; Sysreg.VBAR_EL1; Sysreg.ELR_EL1 ]

let test_v83_vhe_el1_access_executes () =
  (* a VHE guest hypervisor "simply accesses EL1 registers directly without
     trapping to the host hypervisor" (Section 5) *)
  List.iter
    (fun r ->
      check Alcotest.bool (Sysreg.name r ^ " executes") true
        (is_exec (route ~hcr:hcr_nv_vhe (msr r))))
    [ Sysreg.SCTLR_EL1; Sysreg.VBAR_EL1; Sysreg.ELR_EL1 ]

let test_v83_el12_traps () =
  check Alcotest.bool "SCTLR_EL12 traps" true
    (is_trap
       (route ~hcr:hcr_nv_vhe (Insn.Mrs (0, Sysreg.el12 Sysreg.SCTLR_EL1))))

let test_el0_regs_never_trap () =
  List.iter
    (fun r ->
      check Alcotest.bool (Sysreg.name r ^ " executes") true
        (is_exec (route (msr r))))
    [ Sysreg.TPIDR_EL0; Sysreg.SP_EL0; Sysreg.CNTV_CTL_EL0 ]

(* --- NEVE (NV2) --- *)

let neve_route ?(vhe = false) insn =
  route ~features:v8_4
    ~hcr:(if vhe then hcr_nv2_vhe else hcr_nv2_nonvhe)
    ~vncr:vncr_on insn

let test_neve_vm_regs_defer () =
  List.iter
    (fun r ->
      let a = neve_route (msr r) in
      if not (is_defer a) then
        Alcotest.failf "%s should defer, got %a" (Sysreg.name r) TR.pp_action a)
    Sysreg.table3

let test_neve_defer_address () =
  match neve_route (msr Sysreg.HCR_EL2) with
  | TR.Defer_to_memory { addr; reg } ->
    check Alcotest.bool "register identity" true (reg = Sysreg.HCR_EL2);
    check Alcotest.int64 "address = BADDR + offset"
      (Int64.add page
         (Int64.of_int (Option.get (Sysreg.vncr_offset Sysreg.HCR_EL2))))
      addr
  | a -> Alcotest.failf "expected deferral, got %a" TR.pp_action a

let test_neve_redirect () =
  List.iter
    (fun (r, expected) ->
      match neve_route (msr r) with
      | TR.Execute_redirected a ->
        check Alcotest.string (Sysreg.name r) expected (Sysreg.access_name a)
      | a -> Alcotest.failf "%s: expected redirect, got %a" (Sysreg.name r)
               TR.pp_action a)
    [ (Sysreg.VBAR_EL2, "VBAR_EL1"); (Sysreg.ESR_EL2, "ESR_EL1");
      (Sysreg.SPSR_EL2, "SPSR_EL1"); (Sysreg.SCTLR_EL2, "SCTLR_EL1") ]

let test_neve_trap_on_write () =
  List.iter
    (fun r ->
      check Alcotest.bool (Sysreg.name r ^ " read cached") true
        (is_defer (neve_route (mrs r)));
      check Alcotest.bool (Sysreg.name r ^ " write traps") true
        (is_trap (neve_route (msr r))))
    (Sysreg.table4_trap_on_write @ [ Sysreg.ICH_HCR_EL2; Sysreg.ICH_LR_EL2 0 ])

let test_neve_redirect_or_trap () =
  (* TCR_EL2/TTBR0_EL2: redirected for a VHE guest hypervisor, cached-read/
     trap-write for a non-VHE one (Section 6.1) *)
  List.iter
    (fun r ->
      check Alcotest.bool (Sysreg.name r ^ " VHE redirects") true
        (match neve_route ~vhe:true (msr r) with
         | TR.Execute_redirected _ -> true
         | _ -> false);
      check Alcotest.bool (Sysreg.name r ^ " non-VHE write traps") true
        (is_trap (neve_route (msr r)));
      check Alcotest.bool (Sysreg.name r ^ " non-VHE read cached") true
        (is_defer (neve_route (mrs r))))
    Sysreg.table4_redirect_or_trap

let test_neve_timer_always_traps () =
  List.iter
    (fun r ->
      check Alcotest.bool (Sysreg.name r ^ " read traps") true
        (is_trap (neve_route (mrs r)));
      check Alcotest.bool (Sysreg.name r ^ " write traps") true
        (is_trap (neve_route (msr r))))
    [ Sysreg.CNTHP_CTL_EL2; Sysreg.CNTHV_CTL_EL2 ];
  (* EL02 timer aliases always trap too (Section 7.1) *)
  check Alcotest.bool "CNTV_CTL_EL02 traps" true
    (is_trap
       (neve_route ~vhe:true (Insn.Msr (Sysreg.el02 Sysreg.CNTV_CTL_EL0, Insn.Reg 0))))

let test_neve_el12_defers () =
  List.iter
    (fun r ->
      check Alcotest.bool (Sysreg.name r ^ " EL12 defers") true
        (is_defer
           (neve_route ~vhe:true (Insn.Msr (Sysreg.el12 r, Insn.Reg 0)))))
    Hyp.Reglists.el12_capable

let test_neve_eret_still_traps () =
  check Alcotest.bool "eret traps under NEVE" true
    (is_trap (neve_route Insn.Eret))

let test_neve_disabled_behaves_like_v83 () =
  (* VNCR.Enable=0: no deferral, back to trapping *)
  List.iter
    (fun r ->
      check Alcotest.bool (Sysreg.name r ^ " traps when disabled") true
        (is_trap
           (route ~features:v8_4 ~hcr:hcr_nv2_nonvhe ~vncr:page (msr r))))
    [ Sysreg.HCR_EL2; Sysreg.VTTBR_EL2 ]

(* Table-driven sweep: for every EL2 register, the NEVE route agrees with
   the classification. *)
let test_neve_full_sweep () =
  List.iter
    (fun r ->
      if Sysreg.min_el r = Pstate.EL2 then begin
        let wr = neve_route (msr r) in
        let rd = neve_route (mrs r) in
        match Sysreg.neve_class r with
        | Sysreg.NV_vm_reg ->
          if not (is_defer wr && is_defer rd) then
            Alcotest.failf "%s: VM reg should defer" (Sysreg.name r)
        | Sysreg.NV_redirect _ | Sysreg.NV_redirect_vhe _ ->
          (match (wr, rd) with
           | TR.Execute_redirected _, TR.Execute_redirected _ -> ()
           | _ -> Alcotest.failf "%s: should redirect" (Sysreg.name r))
        | Sysreg.NV_trap_on_write ->
          if not (is_trap wr && is_defer rd) then
            Alcotest.failf "%s: should cache reads / trap writes"
              (Sysreg.name r)
        | Sysreg.NV_redirect_or_trap _ ->
          if not (is_trap wr && is_defer rd) then
            Alcotest.failf "%s: non-VHE should cache reads / trap writes"
              (Sysreg.name r)
        | Sysreg.NV_timer_trap ->
          if not (is_trap wr && is_trap rd) then
            Alcotest.failf "%s: timer should trap" (Sysreg.name r)
        | Sysreg.NV_none ->
          if not (is_trap wr) then
            Alcotest.failf "%s: unclassified EL2 reg should trap"
              (Sysreg.name r)
      end)
    Sysreg.all

(* IPIs are always emulated, in every configuration. *)
let test_sgi_always_traps () =
  let cases =
    [ (v8_3, hcr_nv_nonvhe, 0L); (v8_3, hcr_nv_vhe, 0L);
      (v8_4, hcr_nv2_nonvhe, vncr_on); (v8_3, hcr_vm, 0L) ]
  in
  List.iter
    (fun (features, hcr, vncr) ->
      check Alcotest.bool "SGI1R write traps" true
        (is_trap (route ~features ~hcr ~vncr (msr Sysreg.ICC_SGI1R_EL1))))
    cases

(* Virtual EOI never traps: the virtual CPU interface serves it. *)
let test_eoi_never_traps () =
  List.iter
    (fun (features, hcr, vncr) ->
      check Alcotest.bool "EOIR1 write executes" true
        (is_exec (route ~features ~hcr ~vncr (msr Sysreg.ICC_EOIR1_EL1))))
    [ (v8_3, hcr_nv_nonvhe, 0L); (v8_4, hcr_nv2_nonvhe, vncr_on);
      (v8_3, hcr_vm, 0L) ]

(* Regression: VNCR_EL2.BADDR spans bits [52:12] (Table 2).  A mask one
   bit short silently relocated any deferred access page based at or
   above 2^52 — bit 52 of the base vanished from every deferred address. *)
let test_baddr_bit52 () =
  let high_page = Int64.shift_left 1L 52 in
  let vncr = Int64.logor high_page 1L in
  (match
     route ~features:v8_4 ~hcr:hcr_nv2_nonvhe ~vncr (msr Sysreg.HCR_EL2)
   with
   | TR.Defer_to_memory { addr; reg } ->
     check Alcotest.bool "register identity" true (reg = Sysreg.HCR_EL2);
     check Alcotest.int64 "bit 52 of BADDR survives"
       (Int64.add high_page
          (Int64.of_int (Option.get (Sysreg.vncr_offset Sysreg.HCR_EL2))))
       addr
   | a -> Alcotest.failf "expected deferral, got %a" TR.pp_action a);
  (* bits above 52 are not BADDR and must still be masked off *)
  let noisy = Int64.logor (Int64.shift_left 0x7L 53) vncr in
  match
    route ~features:v8_4 ~hcr:hcr_nv2_nonvhe ~vncr:noisy (msr Sysreg.HCR_EL2)
  with
  | TR.Defer_to_memory { addr; _ } ->
    check Alcotest.int64 "bits [63:53] ignored"
      (Int64.add high_page
         (Int64.of_int (Option.get (Sysreg.vncr_offset Sysreg.HCR_EL2))))
      addr
  | a -> Alcotest.failf "expected deferral, got %a" TR.pp_action a

(* The full NV2 round trip at a high BADDR: the deferred write lands in
   the page, the deferred read comes back from it. *)
let test_baddr_bit52_roundtrip () =
  let high_page = Int64.shift_left 1L 52 in
  let cpu = Arm.Cpu.create ~features:v8_4 () in
  Arm.Cpu.poke_sysreg cpu Sysreg.HCR_EL2
    (List.fold_left Hcr.set 0L [ Hcr.vm; Hcr.imo; Hcr.nv; Hcr.nv1; Hcr.nv2 ]);
  Arm.Cpu.poke_sysreg cpu Sysreg.VNCR_EL2 (Int64.logor high_page 1L);
  cpu.Arm.Cpu.pstate <- Arm.Pstate.at Arm.Pstate.EL1;
  Arm.Cpu.exec cpu
    (Insn.Msr (Sysreg.direct Sysreg.VTTBR_EL2, Insn.Imm 0xabcdL));
  let off = Int64.of_int (Option.get (Sysreg.vncr_offset Sysreg.VTTBR_EL2)) in
  check Alcotest.int64 "deferred write landed above 2^51" 0xabcdL
    (Arm.Memory.read64 cpu.Arm.Cpu.mem (Int64.add high_page off));
  Arm.Cpu.exec cpu (Insn.Mrs (3, Sysreg.direct Sysreg.VTTBR_EL2));
  check Alcotest.int64 "deferred read round-trips" 0xabcdL
    (Arm.Cpu.get_reg cpu 3)

(* --- OoH selective exposure (fourth mechanism) --- *)

let expose_all =
  Expose.Policy.of_list
    [ Expose.Policy.Timer; Expose.Policy.Gic_lrs ]

let route_exposed ?(hcr = hcr_nv_nonvhe) ?(vncr = 0L) insn =
  TR.route ~expose:expose_all v8_3 ~hcr ~vncr ~el:Pstate.EL1 insn

let is_exposed f = function
  | TR.Execute_exposed { feature } -> feature = f
  | _ -> false

let test_expose_grant_routes_trap_free () =
  (* every register in the grant table goes direct, reads and writes *)
  let check_feature f regs =
    List.iter
      (fun r ->
        List.iter
          (fun insn ->
            if not (is_exposed f (route_exposed insn)) then
              Alcotest.failf "%s should be exposed (%s), got %a"
                (Sysreg.name r)
                (Expose.Policy.feature_name f)
                TR.pp_action (route_exposed insn))
          [ mrs r; msr r ])
      regs
  in
  check_feature Expose.Policy.Timer
    [ Sysreg.CNTHP_CTL_EL2; Sysreg.CNTHP_CVAL_EL2; Sysreg.CNTHV_CTL_EL2;
      Sysreg.CNTHV_CVAL_EL2; Sysreg.CNTVOFF_EL2 ];
  check_feature Expose.Policy.Gic_lrs
    (Sysreg.ICH_HCR_EL2 :: Sysreg.ICH_VMCR_EL2
    :: List.init Sysreg.lr_count (fun i -> Sysreg.ICH_LR_EL2 i))

let test_expose_status_regs_stay_trapped () =
  (* the host's vGIC sanitizer derives these; a grant must not leak a
     stale hardware copy *)
  List.iter
    (fun r ->
      if not (is_trap (route_exposed (mrs r))) then
        Alcotest.failf "%s must keep trapping under a gic-lrs grant"
          (Sysreg.name r))
    [ Sysreg.ICH_VTR_EL2; Sysreg.ICH_MISR_EL2; Sysreg.ICH_EISR_EL2;
      Sysreg.ICH_ELRSR_EL2 ]

let test_expose_wins_over_nv2 () =
  (* with NV2 deferral active the grant still goes to hardware, not to
     the deferred page *)
  List.iter
    (fun insn ->
      match route_exposed ~hcr:hcr_nv2_nonvhe ~vncr:vncr_on insn with
      | TR.Execute_exposed _ -> ()
      | a ->
        Alcotest.failf "grant should beat NV2 deferral, got %a" TR.pp_action a)
    [ msr Sysreg.CNTVOFF_EL2; msr (Sysreg.ICH_LR_EL2 11) ]

let test_expose_needs_vel2 () =
  (* the grant only covers the guest *hypervisor*: without NV (plain
     EL1 guest) an exposed register is as dead as ever *)
  List.iter
    (fun r ->
      match route_exposed ~hcr:hcr_vm (msr r) with
      | TR.Execute_exposed _ ->
        Alcotest.failf "%s must not be exposed outside virtual EL2"
          (Sysreg.name r)
      | _ -> ())
    [ Sysreg.CNTHP_CTL_EL2; Sysreg.ICH_LR_EL2 0 ]

let test_expose_none_is_identity () =
  (* an empty policy routes byte-for-byte like the base mechanism *)
  List.iter
    (fun insn ->
      let base = route insn in
      let granted =
        TR.route ~expose:Expose.Policy.none v8_3 ~hcr:hcr_nv_nonvhe
          ~vncr:0L ~el:Pstate.EL1 insn
      in
      if base <> granted then
        Alcotest.failf "empty grant changed routing of %a -> %a" TR.pp_action
          base TR.pp_action granted)
    [ msr Sysreg.CNTHP_CTL_EL2; mrs Sysreg.ICH_VMCR_EL2;
      msr Sysreg.VTTBR_EL2; mrs Sysreg.SCTLR_EL1 ]

let suite =
  [
    ("v8.0: EL2 access at EL1 is UNDEFINED", `Quick, test_v80_el2_access_undef);
    ("v8.0: eret executes at EL1", `Quick, test_v80_eret_executes);
    ("VHE: E2H redirection at EL2", `Quick, test_vhe_redirection_at_el2);
    ("VHE: timer redirection at EL2", `Quick, test_vhe_timer_redirection);
    ("VHE: no redirection without E2H", `Quick, test_no_vhe_no_redirection);
    ("v8.3: EL2 accesses trap from vEL2", `Quick, test_v83_el2_access_traps);
    ("v8.3: eret traps with EC_eret", `Quick, test_v83_eret_traps);
    ("v8.3: CurrentEL disguise", `Quick, test_v83_currentel_disguise);
    ("v8.3: non-VHE EL1 accesses trap", `Quick, test_v83_nonvhe_el1_access_traps);
    ("v8.3: VHE EL1 accesses execute", `Quick, test_v83_vhe_el1_access_executes);
    ("v8.3: _EL12 accesses trap", `Quick, test_v83_el12_traps);
    ("EL0 registers never trap", `Quick, test_el0_regs_never_trap);
    ("NEVE: Table 3 registers defer to memory", `Quick, test_neve_vm_regs_defer);
    ("NEVE: deferral address = BADDR + offset", `Quick, test_neve_defer_address);
    ("NEVE: register redirection", `Quick, test_neve_redirect);
    ("NEVE: trap-on-write with cached reads", `Quick, test_neve_trap_on_write);
    ("NEVE: redirect-or-trap (TCR/TTBR0)", `Quick, test_neve_redirect_or_trap);
    ("NEVE: timers always trap", `Quick, test_neve_timer_always_traps);
    ("NEVE: _EL12 accesses defer", `Quick, test_neve_el12_defers);
    ("NEVE: eret still traps", `Quick, test_neve_eret_still_traps);
    ("NEVE: Enable=0 restores v8.3 trapping", `Quick,
     test_neve_disabled_behaves_like_v83);
    ("NEVE: full classification sweep", `Quick, test_neve_full_sweep);
    ("SGI writes trap everywhere", `Quick, test_sgi_always_traps);
    ("virtual EOI never traps", `Quick, test_eoi_never_traps);
    ("NEVE: BADDR covers bit 52", `Quick, test_baddr_bit52);
    ("NEVE: deferral round-trips above 2^51", `Quick,
     test_baddr_bit52_roundtrip);
    ("OoH: granted registers route trap-free", `Quick,
     test_expose_grant_routes_trap_free);
    ("OoH: vGIC status registers stay trapped", `Quick,
     test_expose_status_regs_stay_trapped);
    ("OoH: grant wins over NV2 deferral", `Quick, test_expose_wins_over_nv2);
    ("OoH: no exposure outside virtual EL2", `Quick, test_expose_needs_vel2);
    ("OoH: empty policy is the identity", `Quick,
     test_expose_none_is_identity);
  ]
