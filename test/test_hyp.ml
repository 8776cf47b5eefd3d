(* End-to-end tests of the hypervisor stack: world switches, injection,
   eret emulation, trap counts per configuration, the paravirt/hardware
   equivalence property, and the paravirtualization patcher. *)

module Machine = Hyp.Machine
module Config = Hyp.Config
module Sysreg = Arm.Sysreg
module Insn = Arm.Insn
module Cpu = Arm.Cpu

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let nested ?(vhe = false) mech =
  let m = Machine.create ~ncpus:2 (Config.v ~guest_vhe:vhe mech) Hyp.Host_hyp.Nested in
  Machine.boot m;
  m

let traps_for m op =
  op ();
  (* warm up *)
  let s = Machine.snapshot m in
  op ();
  (Machine.delta_since m s).Cost.d_traps

let hypercall_traps ?vhe mech =
  let m = nested ?vhe mech in
  traps_for m (fun () -> Machine.hypercall m ~cpu:0)

(* --- trap counts: the exit-multiplication numbers --- *)

let test_v83_exit_multiplication () =
  (* paper: 126 traps for a non-VHE guest hypervisor; the model's register
     lists land within a few traps of that *)
  let t = hypercall_traps Config.Hw_v8_3 in
  check Alcotest.bool (Fmt.str "non-VHE v8.3 traps ~126 (got %d)" t) true
    (t >= 110 && t <= 135)

let test_v83_vhe_fewer_traps () =
  let nonvhe = hypercall_traps Config.Hw_v8_3 in
  let vhe = hypercall_traps ~vhe:true Config.Hw_v8_3 in
  check Alcotest.bool (Fmt.str "VHE (%d) < non-VHE (%d)" vhe nonvhe) true
    (vhe < nonvhe);
  check Alcotest.bool "VHE still suffers exit multiplication" true (vhe > 30)

let test_neve_trap_reduction () =
  (* paper: 126 -> 15, "more than six times" fewer *)
  let v83 = hypercall_traps Config.Hw_v8_3 in
  let neve = hypercall_traps Config.Hw_neve in
  check Alcotest.bool (Fmt.str "NEVE traps ~15 (got %d)" neve) true
    (neve >= 10 && neve <= 20);
  check Alcotest.bool "reduction is at least 6x" true (neve * 6 <= v83)

let test_vm_hypercall_single_trap () =
  let m = Machine.create (Config.v Config.Hw_v8_3) Hyp.Host_hyp.Single_vm in
  Machine.boot m;
  check Alcotest.int "one trap for a VM hypercall" 1
    (traps_for m (fun () -> Machine.hypercall m ~cpu:0))

(* --- the methodology property (Section 3): paravirtualized runs on v8.0
   behave exactly like the hardware they mimic --- *)

let test_pv_equivalence_v83 () =
  List.iter
    (fun vhe ->
      let hw = hypercall_traps ~vhe Config.Hw_v8_3 in
      let pv = hypercall_traps ~vhe Config.Pv_v8_3 in
      check Alcotest.int
        (Fmt.str "v8.3%s: hw and paravirt trap counts equal"
           (if vhe then " VHE" else ""))
        hw pv)
    [ false; true ]

let test_pv_equivalence_neve () =
  List.iter
    (fun vhe ->
      let hw = hypercall_traps ~vhe Config.Hw_neve in
      let pv = hypercall_traps ~vhe Config.Pv_neve in
      check Alcotest.int
        (Fmt.str "NEVE%s: hw and paravirt trap counts equal"
           (if vhe then " VHE" else ""))
        hw pv)
    [ false; true ]

let test_pv_equivalence_cycles () =
  (* not just trap counts: the cycle costs match too *)
  let run mech =
    let m = nested mech in
    Machine.hypercall m ~cpu:0;
    let s = Machine.snapshot m in
    Machine.hypercall m ~cpu:0;
    (Machine.delta_since m s).Cost.d_cycles
  in
  check Alcotest.int "cycles identical" (run Config.Hw_neve) (run Config.Pv_neve)

(* --- state multiplexing correctness --- *)

let test_vel2_state_preserved_across_nested_run () =
  (* values the guest hypervisor wrote to its virtual EL2 registers must
     survive a round trip through the nested VM *)
  let m = nested Config.Hw_v8_3 in
  let host = m.Machine.hosts.(0) in
  let vcpu = host.Hyp.Host_hyp.vcpu in
  let before = Hyp.Vcpu.read_vel2 vcpu Sysreg.VTTBR_EL2 in
  check Alcotest.bool "guest hypervisor programmed its VTTBR" true
    (before <> 0L);
  Machine.hypercall m ~cpu:0;
  check Alcotest.int64 "virtual VTTBR preserved" before
    (Hyp.Vcpu.read_vel2 vcpu Sysreg.VTTBR_EL2)

let test_in_vel2_transitions () =
  let m = nested Config.Hw_neve in
  let vcpu = m.Machine.hosts.(0).Hyp.Host_hyp.vcpu in
  (* after boot the nested VM is running *)
  check Alcotest.bool "nested VM running after boot" false vcpu.Hyp.Vcpu.in_vel2;
  Machine.hypercall m ~cpu:0;
  (* the hypercall went through vEL2 and came back *)
  check Alcotest.bool "back in the nested VM" false vcpu.Hyp.Vcpu.in_vel2;
  check Alcotest.bool "nested VM was launched" true vcpu.Hyp.Vcpu.nested_launched

let test_neve_vncr_toggled () =
  (* NEVE must be enabled while the guest hypervisor runs and disabled
     while the nested VM runs (Section 6.1 workflow) *)
  let m = nested Config.Hw_neve in
  let cpu = m.Machine.cpus.(0) in
  (* nested VM running: VNCR disabled *)
  check Alcotest.bool "VNCR off while the nested VM runs" false
    (Core.Vncr.read cpu).Core.Vncr.enable;
  (* force the guest hypervisor in: easiest observable point is during an
     exit; instrument via the hook *)
  let observed = ref None in
  let orig = m.Machine.hosts.(0).Hyp.Host_hyp.on_vel2_entry in
  m.Machine.hosts.(0).Hyp.Host_hyp.on_vel2_entry <-
    Some
      (fun reason ->
        observed := Some (Core.Vncr.read cpu).Core.Vncr.enable;
        (Option.get orig) reason);
  Machine.hypercall m ~cpu:0;
  check Alcotest.bool "VNCR on while the guest hypervisor runs" true
    (!observed = Some true)

let test_guest_state_roundtrip_through_page () =
  (* a value the guest hypervisor writes for its VM must reach the nested
     VM's hardware register when the VM runs — through the deferred page *)
  let m = nested Config.Hw_neve in
  let vcpu = m.Machine.hosts.(0).Hyp.Host_hyp.vcpu in
  Machine.hypercall m ~cpu:0;
  (* the guest hypervisor restored SCTLR from its context area; L0 loaded
     the page contents into hardware EL1 when entering the nested VM *)
  check Alcotest.int64 "hardware EL1 matches the virtual EL1 state"
    (Hyp.Vcpu.read_vel1 vcpu Sysreg.SCTLR_EL1)
    (Cpu.peek_sysreg m.Machine.cpus.(0) Sysreg.SCTLR_EL1)

(* --- IPIs end to end --- *)

let test_nested_ipi_end_to_end () =
  let m = nested Config.Hw_v8_3 in
  let s = Machine.snapshot m in
  Machine.send_ipi m ~cpu:0 ~target:1 ~intid:5;
  (* the target's list registers hold the pending SGI *)
  (match Machine.vm_ack m ~cpu:1 with
   | Some 5 -> ()
   | Some v -> Alcotest.failf "acked wrong vintid %d" v
   | None -> Alcotest.fail "no pending interrupt on the target");
  check Alcotest.bool "EOI completes without trapping" true
    (Machine.vm_eoi m ~cpu:1 ~vintid:5);
  let d = Machine.delta_since m s in
  (* paper: 261 traps for non-VHE v8.3; allow the same +-10% band *)
  check Alcotest.bool (Fmt.str "IPI traps ~261 (got %d)" d.Cost.d_traps) true
    (d.Cost.d_traps > 200 && d.Cost.d_traps < 300)

let test_vm_ipi_two_traps () =
  let m = Machine.create ~ncpus:2 (Config.v Config.Hw_v8_3) Hyp.Host_hyp.Single_vm in
  Machine.boot m;
  let s = Machine.snapshot m in
  Machine.send_ipi m ~cpu:0 ~target:1 ~intid:5;
  let d = Machine.delta_since m s in
  check Alcotest.int "sender trap + receiver interrupt" 2 d.Cost.d_traps;
  check Alcotest.bool "target can acknowledge" true
    (Machine.vm_ack m ~cpu:1 = Some 5)

(* --- virtual-interrupt queueing and LR overflow --- *)

let test_virq_lr_overflow () =
  let m = nested Config.Hw_neve in
  (* deliver six device interrupts back to back: only four list registers
     exist, so two must stay queued in the guest hypervisor *)
  for i = 0 to 5 do
    Machine.device_irq m ~cpu:0 ~intid:(40 + i)
  done;
  let acked = ref [] in
  let rec drain () =
    match Machine.vm_ack m ~cpu:0 with
    | Some v ->
      acked := v :: !acked;
      ignore (Machine.vm_eoi m ~cpu:0 ~vintid:v);
      drain ()
    | None -> ()
  in
  drain ();
  check Alcotest.int "four interrupts visible at first" 4 (List.length !acked);
  (* the queued overflow reaches the VM on the next entry *)
  Machine.hypercall m ~cpu:0;
  drain ();
  check Alcotest.int "all six delivered eventually" 6 (List.length !acked);
  check Alcotest.bool "each exactly once" true
    (List.sort_uniq Int.compare !acked = List.sort Int.compare !acked
     && List.sort Int.compare !acked = [ 40; 41; 42; 43; 44; 45 ])

(* --- MMIO forwarding --- *)

let test_mmio_forwarded_to_guest_hyp () =
  let m = nested Config.Hw_neve in
  let g = Option.get m.Machine.ghyps.(0) in
  let before = g.Hyp.Guest_hyp.exits_handled in
  Machine.mmio_access m ~cpu:0 ~addr:0x0a00_0000L ~is_write:true;
  check Alcotest.int "guest hypervisor handled the exit" (before + 1)
    g.Hyp.Guest_hyp.exits_handled

(* --- the paravirtualization patcher --- *)

let pv_config = Config.v Config.Pv_v8_3
let pv_neve_config = Config.v Config.Pv_neve
let page = 0x5_0000L

let patch config insn =
  Hyp.Paravirt.patch config ~page_base:page ~slot:Hyp.Paravirt.Absolute insn

let test_rewrite_trap_to_hvc () =
  match patch pv_config (Insn.Msr (Sysreg.direct Sysreg.VTTBR_EL2, Insn.Reg 3)) with
  | Insn.Hvc op -> begin
      match Hyp.Paravirt.decode_op op with
      | Hyp.Paravirt.Op_sysreg { access; rt; is_read } ->
        check Alcotest.string "register" "VTTBR_EL2" (Sysreg.access_name access);
        check Alcotest.int "rt" 3 rt;
        check Alcotest.bool "write" false is_read
      | _ -> Alcotest.fail "bad operand"
    end
  | i -> Alcotest.failf "expected an hvc, got %s" (Insn.to_string i)

let test_rewrite_neve_defer_to_store () =
  match patch pv_neve_config (Insn.Msr (Sysreg.direct Sysreg.HCR_EL2, Insn.Reg 2)) with
  | Insn.Str (2, Insn.Abs addr) ->
    check Alcotest.int64 "store into the shared page"
      (Int64.add page (Int64.of_int (Option.get (Sysreg.vncr_offset Sysreg.HCR_EL2))))
      addr
  | _ -> Alcotest.fail "expected a store"

let test_rewrite_neve_redirect_to_el1 () =
  match patch pv_neve_config (Insn.Mrs (4, Sysreg.direct Sysreg.VBAR_EL2)) with
  | Insn.Mrs (4, a) ->
    check Alcotest.string "redirected to VBAR_EL1" "VBAR_EL1"
      (Sysreg.access_name a)
  | _ -> Alcotest.fail "expected a redirected mrs"

let test_rewrite_eret () =
  (match patch pv_config Insn.Eret with
   | Insn.Hvc op ->
     check Alcotest.bool "eret operand" true
       (Hyp.Paravirt.decode_op op = Hyp.Paravirt.Op_eret)
   | _ -> Alcotest.fail "expected hvc");
  (* under NEVE eret still traps *)
  match patch pv_neve_config Insn.Eret with
  | Insn.Hvc _ -> ()
  | _ -> Alcotest.fail "NEVE eret should still become hvc"

let test_rewrite_currentel () =
  match patch pv_config (Insn.Mrs (6, Sysreg.direct Sysreg.CurrentEL)) with
  | Insn.Mov (6, Insn.Imm v) ->
    check Alcotest.int64 "returns EL2" (Arm.Pstate.currentel_bits Arm.Pstate.EL2) v
  | _ -> Alcotest.fail "CurrentEL should become a mov"

let test_rewrite_untouched () =
  (* instructions that execute on the target stay as they are, and so do
     those the hvc protocol does not encode *)
  List.iter
    (fun i ->
      check Alcotest.bool (Insn.to_string i ^ " untouched") true
        (patch pv_config i == i))
    [ Insn.Msr (Sysreg.direct Sysreg.TPIDR_EL0, Insn.Reg 1);
      Insn.Msr (Sysreg.direct Sysreg.VTTBR_EL2, Insn.Imm 5L); Insn.Wfi ]

(* Every access form the funnel can execute, in both directions, plus
   eret and two hypercalls, under each paravirt configuration: [patch]
   gives the one instruction [test/golden/pv-patch.txt] holds for it,
   as recorded from the multi-instruction rewriter it replaced (which
   never produced more than one for these inputs).  A form the target
   architecture finds UNDEFINED ("undefined" there) is left as it is,
   and the ARMv8.0 hardware the guest hypervisor runs on raises UNDEF
   for it at EL1 too. *)
let test_patch_matches_golden () =
  let configs =
    [ pv_config; Config.v ~guest_vhe:true Config.Pv_v8_3; pv_neve_config;
      Config.v ~guest_vhe:true Config.Pv_neve ]
  in
  let lines =
    List.concat_map
      (fun config ->
        let m = Machine.create config Hyp.Host_hyp.Nested in
        Machine.boot m;
        let cpu = Arm.Cpu.create ~features:(Config.hw_features config) () in
        Arm.Cpu.poke_sysreg cpu Sysreg.HCR_EL2
          (Hyp.Host_hyp.hcr_for m.Machine.hosts.(0) ~vel2:true);
        cpu.Arm.Cpu.pstate <- Arm.Pstate.at Arm.Pstate.EL1;
        let line insn =
          let p = patch config insn in
          let shown =
            match Hyp.Paravirt.target_route config ~page_base:page insn with
            | Arm.Trap_rules.Undef ->
              check Alcotest.bool (Insn.to_string insn ^ " left as it is") true
                (p == insn);
              check Alcotest.bool (Insn.to_string insn ^ " UNDEFINED on v8.0")
                true (Arm.Cpu.route cpu p = Arm.Trap_rules.Undef);
              "undefined"
            | _ -> Insn.to_string p
          in
          Printf.sprintf "%s | %s -> %s" (Config.name config)
            (Insn.to_string insn) shown
        in
        List.concat_map
          (fun a ->
            [ line (Insn.Mrs (Hyp.Gaccess.data_reg, a));
              line (Insn.Msr (a, Insn.Reg Hyp.Gaccess.data_reg)) ])
          (Array.to_list Hyp.Paravirt.forms)
        @ [ line Insn.Eret; line (Insn.Hvc 0); line (Insn.Hvc 1) ])
      configs
  in
  check Alcotest.(list string) "patched forms"
    (String.split_on_char '\n'
       (String.trim
          (Test_supervise.read_file
             (Test_supervise.locate
                [ "golden/pv-patch.txt"; "test/golden/pv-patch.txt" ]))))
    lines

let op_roundtrip_arb =
  QCheck.make
    ~print:(fun (i, rt, is_read) -> Fmt.str "form %d rt=%d rd=%b" i rt is_read)
    QCheck.Gen.(
      triple
        (int_bound (Array.length Hyp.Paravirt.forms - 1))
        (int_bound 30) bool)

let test_op_encoding_roundtrip =
  QCheck.Test.make ~count:500 ~name:"paravirt: operand encode/decode"
    op_roundtrip_arb (fun (i, rt, is_read) ->
      let access = Hyp.Paravirt.forms.(i) in
      match
        Hyp.Paravirt.decode_op
          (Hyp.Paravirt.encode_sysreg_op ~access ~rt ~is_read)
      with
      | Hyp.Paravirt.Op_sysreg { access = a; rt = r; is_read = d } ->
        a = access && r = rt && d = is_read
      | _ -> false)

let test_real_hypercalls_passthrough () =
  check Alcotest.bool "small operands stay hypercalls" true
    (Hyp.Paravirt.decode_op 0 = Hyp.Paravirt.Op_hypercall 0);
  check Alcotest.bool "operand 63" true
    (Hyp.Paravirt.decode_op 63 = Hyp.Paravirt.Op_hypercall 63)

(* --- binary patching (Section 4's automated approach) --- *)

let test_patch_text () =
  let words =
    Array.of_list
      (List.map Arm.Encode.encode
         [ Insn.Mrs (0, Sysreg.direct Sysreg.ESR_EL2);   (* traps on v8.3 *)
           Insn.Msr (Sysreg.direct Sysreg.TPIDR_EL0, Insn.Reg 1); (* fine *)
           Insn.Eret ])
  in
  let patched = Hyp.Paravirt.patch_text pv_config ~page_base:page words in
  (match Arm.Encode.decode patched.(0) with
   | Arm.Encode.D_insn (Insn.Hvc _) -> ()
   | _ -> Alcotest.fail "trapped access should become hvc");
  check Alcotest.int "untouched word identical" words.(1) patched.(1);
  (match Arm.Encode.decode patched.(2) with
   | Arm.Encode.D_insn (Insn.Hvc op) ->
     check Alcotest.bool "eret patched" true
       (Hyp.Paravirt.decode_op op = Hyp.Paravirt.Op_eret)
   | _ -> Alcotest.fail "eret should become hvc")

let test_patch_text_neve_uses_page_reg () =
  let words =
    [| Arm.Encode.encode (Insn.Msr (Sysreg.direct Sysreg.HCR_EL2, Insn.Reg 2)) |]
  in
  let patched = Hyp.Paravirt.patch_text pv_neve_config ~page_base:page words in
  match Arm.Encode.decode patched.(0) with
  | Arm.Encode.D_insn (Insn.Str (2, Insn.Based (rn, off))) ->
    check Alcotest.int "base register is x28" Hyp.Paravirt.page_base_reg rn;
    check Alcotest.int64 "offset matches the slot"
      (Int64.of_int (Option.get (Sysreg.vncr_offset Sysreg.HCR_EL2)))
      off
  | _ -> Alcotest.fail "expected str [x28, #slot]"

(* --- ablation: each NEVE mechanism contributes (DESIGN.md section 4) --- *)

let test_ablation_ordering () =
  let results = Workloads.Ablation.run ~iters:2 () in
  let traps label =
    (List.find (fun r -> r.Workloads.Ablation.r_label = label) results)
      .Workloads.Ablation.r_traps
  in
  let all_off = traps "all off (~ARMv8.3)" in
  let defer = traps "deferral only" in
  let redirect = traps "redirection only" in
  let cached = traps "cached copies only" in
  let full = traps "full NEVE" in
  check Alcotest.bool "every mechanism reduces traps" true
    (defer < all_off && redirect < all_off && cached < all_off);
  check Alcotest.bool "deferral is the dominant mechanism" true
    (defer < redirect && defer < cached);
  check Alcotest.bool "full NEVE is the best" true
    (full <= defer && full <= redirect && full <= cached);
  check Alcotest.bool "full NEVE in the Table-7 band" true
    (full >= 10. && full <= 20.)

let test_ablation_cycles_follow_traps () =
  let results = Workloads.Ablation.run ~iters:2 () in
  let sorted_by_traps =
    List.sort
      (fun a b ->
        compare a.Workloads.Ablation.r_traps b.Workloads.Ablation.r_traps)
      results
  in
  let cycles = List.map (fun r -> r.Workloads.Ablation.r_cycles) sorted_by_traps in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  check Alcotest.bool "fewer traps, fewer cycles" true (monotone cycles)

(* --- GICv2: the memory-mapped hypervisor control interface --- *)

let test_gicv2_traps_via_mmio () =
  let m =
    Machine.create ~ncpus:1 (Config.v ~gicv2:true Config.Hw_v8_3)
      Hyp.Host_hyp.Nested
  in
  Machine.boot m;
  Machine.hypercall m ~cpu:0;
  let s = Machine.snapshot m in
  Machine.hypercall m ~cpu:0;
  let d = Machine.delta_since m s in
  let kind k = Option.value ~default:0 (List.assoc_opt k d.Cost.d_by_kind) in
  check Alcotest.bool "GIC accesses trap as data aborts" true
    (kind Cost.Trap_mmio > 0);
  check Alcotest.int "no GIC system-register traps" 0
    (kind Cost.Trap_sysreg_gic);
  (* same total exit multiplication as the sysreg interface: the paper's
     "programming interfaces for both GIC versions are almost identical" *)
  let m3 = nested Config.Hw_v8_3 in
  let t3 = traps_for m3 (fun () -> Machine.hypercall m3 ~cpu:0) in
  check Alcotest.int "same trap count as GICv3" t3 d.Cost.d_traps

let test_gicv2_neve_gic_still_traps () =
  (* NEVE's cached copies serve GICv3 *system register* reads; a GICv2's
     memory-mapped accesses cannot be redirected, so they keep trapping *)
  let v2 =
    let m =
      Machine.create ~ncpus:1 (Config.v ~gicv2:true Config.Hw_neve)
        Hyp.Host_hyp.Nested
    in
    Machine.boot m;
    traps_for m (fun () -> Machine.hypercall m ~cpu:0)
  in
  let v3 = hypercall_traps Config.Hw_neve in
  check Alcotest.bool
    (Fmt.str "GICv2 NEVE traps more than GICv3 NEVE (%d > %d)" v2 v3)
    true (v2 > v3)

let test_gicv2_state_reaches_vel2 () =
  (* a GICH write through the MMIO path must land in the virtual EL2 vgic
     and from there reach the hardware list registers *)
  let m =
    Machine.create ~ncpus:2 (Config.v ~gicv2:true Config.Hw_v8_3)
      Hyp.Host_hyp.Nested
  in
  Machine.boot m;
  Machine.send_ipi m ~cpu:0 ~target:1 ~intid:3;
  (* the target's guest hypervisor injected the SGI into LR0 via the GICH
     frame; the host propagated it into the hardware LRs *)
  check Alcotest.bool "LR0 programmed through GICv2 emulation" true
    (Machine.vm_ack m ~cpu:1 = Some 3)

(* --- debug/PMU context (Section 6.1's "performance monitoring,
   debugging, and timer system registers") --- *)

let hypercall_traps_with ?(vhe = false) ~debug ~pmu mech =
  let m = nested ~vhe mech in
  (match m.Machine.ghyps.(0) with
   | Some g ->
     g.Hyp.Guest_hyp.debug_active <- debug;
     g.Hyp.Guest_hyp.pmu_active <- pmu
   | None -> ());
  traps_for m (fun () -> Machine.hypercall m ~cpu:0)

let test_debug_active_traps_v83_not_neve () =
  (* a debugged nested VM makes the guest hypervisor context-switch 24
     breakpoint/watchpoint registers per exit: each access traps on
     ARMv8.3 but is deferred by NEVE *)
  let v83_plain = hypercall_traps Config.Hw_v8_3 in
  let v83_debug = hypercall_traps_with ~debug:true ~pmu:false Config.Hw_v8_3 in
  let neve_plain = hypercall_traps Config.Hw_neve in
  let neve_debug = hypercall_traps_with ~debug:true ~pmu:false Config.Hw_neve in
  check Alcotest.bool
    (Fmt.str "debug adds ~48 traps on v8.3 (%d -> %d)" v83_plain v83_debug)
    true
    (v83_debug - v83_plain >= 40);
  check Alcotest.int "debug adds no traps under NEVE" neve_plain neve_debug

let test_pmu_active_traps () =
  (* most PMU state is EL0-accessible (never traps); only the EL1
     interrupt-enable register does, and NEVE defers it *)
  let v83_plain = hypercall_traps Config.Hw_v8_3 in
  let v83_pmu = hypercall_traps_with ~debug:false ~pmu:true Config.Hw_v8_3 in
  let neve_plain = hypercall_traps Config.Hw_neve in
  let neve_pmu = hypercall_traps_with ~debug:false ~pmu:true Config.Hw_neve in
  check Alcotest.bool
    (Fmt.str "PMU adds a couple of traps on v8.3 (%d -> %d)" v83_plain v83_pmu)
    true
    (v83_pmu - v83_plain >= 1 && v83_pmu - v83_plain <= 6);
  check Alcotest.int "PMU adds no traps under NEVE" neve_plain neve_pmu

let test_debug_pv_equivalence () =
  (* the methodology property holds for the extended register set too *)
  let hw = hypercall_traps_with ~debug:true ~pmu:true Config.Hw_neve in
  let pv = hypercall_traps_with ~debug:true ~pmu:true Config.Pv_neve in
  check Alcotest.int "hw == paravirt with debug+PMU active" hw pv

(* --- recursive virtualization (Section 6.2) --- *)

let test_recursive_multiplication () =
  let v83 = Workloads.Recursive.measure (Config.v Config.Hw_v8_3) ~label:"v8.3" in
  let neve = Workloads.Recursive.measure (Config.v Config.Hw_neve) ~label:"neve" in
  (* the L3 cost is roughly the square of the L2 cost *)
  let quadratic (r : Workloads.Recursive.result) =
    let expected = r.Workloads.Recursive.r_l2_traps * r.Workloads.Recursive.r_l2_traps in
    let got = r.Workloads.Recursive.r_l3_traps in
    got > expected / 2 && got < expected * 2
  in
  check Alcotest.bool
    (Fmt.str "v8.3 compounds quadratically (%d ~ %d^2)"
       v83.Workloads.Recursive.r_l3_traps v83.Workloads.Recursive.r_l2_traps)
    true (quadratic v83);
  check Alcotest.bool
    (Fmt.str "NEVE contained (%d ~ %d^2)" neve.Workloads.Recursive.r_l3_traps
       neve.Workloads.Recursive.r_l2_traps)
    true (quadratic neve);
  check Alcotest.bool "NEVE is at least 30x better at L3" true
    (neve.Workloads.Recursive.r_l3_traps * 30
     <= v83.Workloads.Recursive.r_l3_traps)

let test_recursive_neve_uses_hw_vncr () =
  (* while the L2 hypervisor runs, the hardware VNCR must point at the
     translated L1 page, so deferred accesses skip BOTH hypervisors *)
  let m, _l2 = Workloads.Recursive.make (Config.v Config.Hw_neve) in
  let v = Core.Vncr.read m.Machine.cpus.(0) in
  check Alcotest.bool "VNCR enabled for the L2 hypervisor" true
    v.Core.Vncr.enable;
  check Alcotest.int64 "BADDR is L1's translated page"
    Workloads.Recursive.l2_page v.Core.Vncr.baddr;
  (* an L2-hypervisor VM-register write lands in L1's memory, trap-free *)
  let cpu = m.Machine.cpus.(0) in
  let traps0 = cpu.Cpu.meter.Cost.traps in
  Cpu.exec cpu (Insn.Msr (Sysreg.direct Sysreg.VTTBR_EL2, Insn.Imm 0x77L));
  check Alcotest.int "no trap" traps0 cpu.Cpu.meter.Cost.traps;
  check Alcotest.int64 "value visible in L1's page" 0x77L
    (Arm.Memory.read64 m.Machine.mem
       (Int64.add Workloads.Recursive.l2_page
          (Int64.of_int (Option.get (Sysreg.vncr_offset Sysreg.VTTBR_EL2)))))

(* --- the full configuration matrix boots and runs --- *)

let test_all_configurations_smoke () =
  (* every mechanism x VHE x GIC flavour: boot, hypercall, device irq,
     and end consistent *)
  List.iter
    (fun mech ->
      List.iter
        (fun vhe ->
          List.iter
            (fun gicv2 ->
              let config = Config.v ~guest_vhe:vhe ~gicv2 mech in
              let m = Machine.create ~ncpus:2 config Hyp.Host_hyp.Nested in
              Machine.boot m;
              Machine.hypercall m ~cpu:0;
              Machine.device_irq m ~cpu:1 ~intid:Gic.Irq.virtio_net_spi;
              (match Machine.vm_ack m ~cpu:1 with
               | Some v -> ignore (Machine.vm_eoi m ~cpu:1 ~vintid:v)
               | None -> Alcotest.failf "%s: interrupt lost" (Config.name config));
              check Alcotest.bool
                (Config.name config ^ ": consistent after the smoke run")
                true
                (Array.for_all
                   (fun (cpu : Cpu.t) ->
                     cpu.Cpu.pstate.Arm.Pstate.el = Arm.Pstate.EL1
                     && cpu.Cpu.depth = 0)
                   m.Machine.cpus))
            [ false; true ])
        [ false; true ])
    [ Config.Hw_v8_3; Config.Pv_v8_3; Config.Hw_neve; Config.Pv_neve ]

(* --- reglists sanity --- *)

let test_reglists () =
  check Alcotest.int "EL1 context size matches KVM's sysreg-sr set" 22
    (List.length Hyp.Reglists.el1_state);
  check Alcotest.int "16 registers have _EL12 forms" 16
    (List.length Hyp.Reglists.el12_capable);
  List.iter
    (fun r ->
      check Alcotest.bool (Sysreg.name r ^ " is EL1 context") true
        (List.mem r Hyp.Reglists.el1_state))
    Hyp.Reglists.el12_capable;
  (* context slots are unique *)
  let slots = List.map Hyp.Reglists.ctx_slot Sysreg.all in
  check Alcotest.int "slots unique" (List.length slots)
    (List.length (List.sort_uniq Int.compare slots))

(* Every per-vCPU operation rejects a vCPU index the machine does not
   have as a typed topology fault: indexing past the CPU array used to
   escape as [Invalid_argument "index out of bounds"], and an IPI to a
   nonexistent target completed silently.  A guest's own ICC_SGI1R_EL1
   write to such a target is dropped, as on hardware. *)
let test_cpu_index_checked () =
  let m = Machine.create ~ncpus:2 (Config.v ~guest_vhe:true Config.Hw_neve) Hyp.Host_hyp.Nested in
  Machine.boot m;
  let n = Machine.ncpus m in
  let ops =
    [ ("hypercall", fun cpu -> Machine.hypercall m ~cpu);
      ("mmio_access", fun cpu -> Machine.mmio_access m ~cpu ~addr:0x0a00_0000L ~is_write:true);
      ("data_abort", fun cpu -> Machine.data_abort m ~cpu ~addr:0x6100_0000L ~is_write:false);
      ("send_ipi", fun cpu -> Machine.send_ipi m ~cpu ~target:0 ~intid:5);
      ("send_ipi ~target", fun target -> Machine.send_ipi m ~cpu:0 ~target ~intid:5);
      ("vm_ack", fun cpu -> ignore (Machine.vm_ack m ~cpu));
      ("vm_eoi", fun cpu -> ignore (Machine.vm_eoi m ~cpu ~vintid:5));
      ("device_irq", fun cpu -> Machine.device_irq m ~cpu ~intid:40);
      ("compute", fun cpu -> Machine.compute m ~cpu ~insns:8);
      ("smp_map", fun cpu -> Machine.smp_map m ~cpu ~ipa:0x8000_0000L ~pa:0x8800_0000L);
      ("smp_read", fun cpu -> ignore (Machine.smp_read m ~cpu ~ipa:0x8000_0000L));
      ("bbm_break", fun cpu -> Machine.bbm_break m ~cpu ~ipa:0x8000_0000L);
      ("tlbi_bcast", fun cpu -> Machine.tlbi_bcast m ~cpu Mmu.Shootdown.By_vmid);
      ("dsb_sync", fun cpu -> Machine.dsb_sync m ~cpu);
      ("bbm_make", fun cpu -> Machine.bbm_make m ~cpu ~ipa:0x8000_0000L ~pa:0x8800_0000L);
      ("smp_remap", fun cpu -> Machine.smp_remap m ~cpu ~ipa:0x8000_0000L ~pa:0x8800_0000L);
      ("hang", fun cpu -> Machine.hang m ~cpu);
      ("clear_hung", fun cpu -> Machine.clear_hung m ~cpu);
      ("is_hung", fun cpu -> ignore (Machine.is_hung m ~cpu));
      ("pend_serror", fun cpu -> Machine.pend_serror m ~cpu ~syndrome:0x11L);
      ("serror_pending", fun cpu -> ignore (Machine.serror_pending m ~cpu));
      ("kill_l2", fun cpu -> Machine.kill_l2 m ~cpu) ]
  in
  List.iter
    (fun (name, op) ->
      List.iter
        (fun cpu ->
          match op cpu with
          | () -> Alcotest.failf "%s at vCPU %d completed" name cpu
          | exception Fault.Error.Sim_fault (Fault.Error.Bad_topology _, _) -> ()
          | exception e -> Alcotest.failf "%s at vCPU %d raised %s" name cpu (Printexc.to_string e))
        [ n; -1 ])
    ops;
  let traps = Machine.total_traps m in
  Cpu.exec m.Machine.cpus.(0)
    (Insn.Msr (Sysreg.direct Sysreg.ICC_SGI1R_EL1, Insn.Imm (Int64.of_int n)));
  check Alcotest.bool "a guest's SGI to a missing vCPU traps and is dropped" true
    (Machine.total_traps m > traps)

let suite =
  [
    ("v8.3: exit multiplication (~126 traps)", `Quick, test_v83_exit_multiplication);
    ("v8.3: VHE traps less than non-VHE", `Quick, test_v83_vhe_fewer_traps);
    ("NEVE: ~15 traps, at least 6x reduction", `Quick, test_neve_trap_reduction);
    ("VM hypercall is a single trap", `Quick, test_vm_hypercall_single_trap);
    ("methodology: paravirt == hardware (v8.3)", `Quick, test_pv_equivalence_v83);
    ("methodology: paravirt == hardware (NEVE)", `Quick, test_pv_equivalence_neve);
    ("methodology: cycle costs equal too", `Quick, test_pv_equivalence_cycles);
    ("vEL2 state preserved across nested runs", `Quick,
     test_vel2_state_preserved_across_nested_run);
    ("in_vel2 transitions", `Quick, test_in_vel2_transitions);
    ("NEVE toggled around nested runs", `Quick, test_neve_vncr_toggled);
    ("guest EL1 state flows through the page", `Quick,
     test_guest_state_roundtrip_through_page);
    ("nested IPI end to end (~261 traps)", `Quick, test_nested_ipi_end_to_end);
    ("VM IPI: two traps", `Quick, test_vm_ipi_two_traps);
    ("MMIO exits forwarded to the guest hypervisor", `Quick,
     test_mmio_forwarded_to_guest_hyp);
    ("virtual interrupts queue past the LR file", `Quick, test_virq_lr_overflow);
    ("rewrite: trapping access -> hvc", `Quick, test_rewrite_trap_to_hvc);
    ("rewrite: NEVE deferral -> store", `Quick, test_rewrite_neve_defer_to_store);
    ("rewrite: NEVE redirection -> EL1 access", `Quick,
     test_rewrite_neve_redirect_to_el1);
    ("rewrite: eret -> hvc", `Quick, test_rewrite_eret);
    ("rewrite: CurrentEL -> mov EL2", `Quick, test_rewrite_currentel);
    ("rewrite: untouched instructions", `Quick, test_rewrite_untouched);
    qtest test_op_encoding_roundtrip;
    ("paravirt: real hypercalls pass through", `Quick,
     test_real_hypercalls_passthrough);
    ("binary patching a text section", `Quick, test_patch_text);
    ("binary patching NEVE uses x28-relative stores", `Quick,
     test_patch_text_neve_uses_page_reg);
    ("reglists: KVM-shaped register lists", `Quick, test_reglists);
    ("ablation: mechanism contributions ordered", `Quick, test_ablation_ordering);
    ("ablation: cycles follow traps", `Quick, test_ablation_cycles_follow_traps);
    ("gicv2: interface traps as data aborts", `Quick, test_gicv2_traps_via_mmio);
    ("gicv2: NEVE cannot cache MMIO accesses", `Quick,
     test_gicv2_neve_gic_still_traps);
    ("gicv2: state reaches the virtual vgic", `Quick,
     test_gicv2_state_reaches_vel2);
    ("debug context: traps on v8.3, deferred by NEVE", `Quick,
     test_debug_active_traps_v83_not_neve);
    ("PMU context: mostly EL0, deferred otherwise", `Quick,
     test_pmu_active_traps);
    ("debug+PMU: paravirt equivalence holds", `Quick,
     test_debug_pv_equivalence);
    ("recursive: quadratic multiplication, NEVE contains it", `Quick,
     test_recursive_multiplication);
    ("recursive: hardware VNCR points at L1's page", `Quick,
     test_recursive_neve_uses_hw_vncr);
    ("all 16 configurations smoke-run", `Quick, test_all_configurations_smoke);
    ("per-vCPU operations reject a missing vCPU", `Quick, test_cpu_index_checked);
    ("patch: every funnel form matches the golden", `Quick,
     test_patch_matches_golden);
  ]
