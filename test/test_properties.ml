(* Property-based tests over the whole stack: the trap router is total and
   self-consistent, paravirtualization never produces undefined behaviour
   on v8.0, instruction-level hardware/paravirt equivalence holds, and the
   machine returns to a consistent state after arbitrary workloads. *)

module Sysreg = Arm.Sysreg
module Cpu = Arm.Cpu
module Insn = Arm.Insn
module TR = Arm.Trap_rules
module Hcr = Arm.Hcr
module Pstate = Arm.Pstate
module Features = Arm.Features
module Config = Hyp.Config
module Machine = Hyp.Machine

let qtest = QCheck_alcotest.to_alcotest

(* --- generators --- *)

let features_gen =
  QCheck.Gen.oneofl
    [ Features.v Features.V8_0; Features.v Features.V8_1;
      Features.v Features.V8_3; Features.v Features.V8_4 ]

let hcr_gen =
  QCheck.Gen.(
    let* bits =
      flatten_l
        (List.map
           (fun b -> map (fun on -> (b, on)) bool)
           [ Hcr.vm; Hcr.imo; Hcr.twi; Hcr.tsc; Hcr.tvm; Hcr.trvm; Hcr.e2h;
             Hcr.nv; Hcr.nv1; Hcr.nv2 ])
    in
    return
      (List.fold_left (fun acc (b, on) -> if on then Hcr.set acc b else acc)
         0L bits))

let el_gen = QCheck.Gen.oneofl [ Pstate.EL0; Pstate.EL1; Pstate.EL2 ]

let access_gen =
  QCheck.Gen.(oneofl (Array.to_list Hyp.Paravirt.forms))

let insn_gen =
  QCheck.Gen.(
    let* access = access_gen in
    let* rt = int_bound 30 in
    oneofl
      [ Insn.Mrs (rt, access); Insn.Msr (access, Insn.Reg rt); Insn.Eret;
        Insn.Hvc 0; Insn.Wfi; Insn.Nop; Insn.Smc 0 ])

let vncr_gen =
  QCheck.Gen.(
    let* enable = bool in
    let* pageno = int_bound 0xffff in
    return
      (Int64.logor
         (Int64.mul (Int64.of_int pageno) 4096L)
         (if enable then 1L else 0L)))

let route_case_gen =
  QCheck.Gen.(
    let* features = features_gen in
    let* hcr = hcr_gen in
    let* vncr = vncr_gen in
    let* el = el_gen in
    let* insn = insn_gen in
    return (features, hcr, vncr, el, insn))

let route_case_arb =
  QCheck.make
    ~print:(fun (f, h, v, el, i) ->
      Fmt.str "%a hcr=0x%Lx vncr=0x%Lx %s %s" Features.pp f h v
        (Pstate.el_name el) (Insn.to_string i))
    route_case_gen

(* --- the router is a total, self-consistent function --- *)

let test_route_total =
  QCheck.Test.make ~count:3000 ~name:"route: total over the configuration space"
    route_case_arb (fun (features, hcr, vncr, el, insn) ->
      match
        TR.route features ~hcr:(Hcr.decode hcr) ~vncr ~el insn
      with
      | TR.Execute | TR.Trap_to_el2 _ | TR.Undef | TR.Read_disguised _ -> true
      | TR.Execute_exposed _ ->
        (* exposure requires an explicit grant; this route passed none *)
        false
      | TR.Execute_redirected target ->
        (* a redirection never targets the register it came from *)
        (match Insn.sysreg_use insn with
         | Insn.Read_sysreg a | Insn.Write_sysreg a -> a <> target
         | Insn.No_sysreg -> false)
      | TR.Defer_to_memory { addr; reg } ->
        (* deferral only with NV2 enabled, into the right slot *)
        Features.has_nv2 features
        && (Hcr.decode hcr).Hcr.h_nv2
        && TR.vncr_enable vncr
        && Sysreg.vncr_offset reg <> None
        && Int64.sub addr (TR.vncr_baddr vncr)
           = Int64.of_int (Option.get (Sysreg.vncr_offset reg)))

let test_route_el2_never_traps =
  QCheck.Test.make ~count:1000 ~name:"route: EL2 execution never traps"
    route_case_arb (fun (features, hcr, vncr, _el, insn) ->
      match insn with
      | Insn.Hvc _ -> true (* hvc is an exception-generating instruction *)
      | _ ->
        (match
           TR.route features ~hcr:(Hcr.decode hcr) ~vncr ~el:Pstate.EL2 insn
         with
         | TR.Trap_to_el2 _ -> false
         | _ -> true))

let test_route_v80_never_defers =
  QCheck.Test.make ~count:1000 ~name:"route: v8.0 never defers or disguises"
    route_case_arb (fun (_f, hcr, vncr, el, insn) ->
      match
        TR.route (Features.v Features.V8_0) ~hcr:(Hcr.decode hcr) ~vncr ~el
          insn
      with
      | TR.Defer_to_memory _ | TR.Read_disguised _ -> false
      | _ -> true)

(* --- paravirtualization safety: a rewritten guest hypervisor never hits
   UNDEFINED on v8.0 (the whole point of Section 4) --- *)

let pv_case_gen =
  QCheck.Gen.(
    let* access = access_gen in
    let* rt = int_bound 30 in
    let* is_read = bool in
    let* vhe = bool in
    let* neve = bool in
    return (access, rt, is_read, vhe, neve))

let pv_case_arb =
  QCheck.make
    ~print:(fun (a, rt, rd, vhe, neve) ->
      Fmt.str "%s rt=%d read=%b vhe=%b neve=%b" (Sysreg.access_name a) rt rd
        vhe neve)
    pv_case_gen

let config_of ~vhe ~neve =
  Config.v ~guest_vhe:vhe (if neve then Config.Pv_neve else Config.Pv_v8_3)

let page = 0x5_0000L

let test_rewrite_runs_on_v80 =
  QCheck.Test.make ~count:2000
    ~name:"paravirt: rewritten accesses always execute on v8.0" pv_case_arb
    (fun (access, rt, is_read, vhe, neve) ->
      let config = config_of ~vhe ~neve in
      let insn =
        if is_read then Insn.Mrs (rt, access)
        else Insn.Msr (access, Insn.Reg rt)
      in
      match Hyp.Paravirt.rewrite config ~page_base:page insn with
      | exception Hyp.Paravirt.Would_undef _ ->
        (* legitimate only when the target architecture itself rejects the
           instruction (e.g. a write to the read-only CurrentEL) *)
        Hyp.Paravirt.target_route config ~page_base:page insn = TR.Undef
      | insns ->
        let cpu = Cpu.create () in
        cpu.Cpu.el2_handler <- Some (fun c _ -> Cpu.do_eret c);
        cpu.Cpu.pstate <- Pstate.at Pstate.EL1;
        (try
           List.iter (Cpu.exec cpu) insns;
           true
         with Cpu.Undefined_instruction _ -> false))

(* --- instruction-level hardware/paravirt equivalence --- *)

let traps_of_one_insn ~mech ~vhe insn =
  let config = Config.v ~guest_vhe:vhe mech in
  let cpu = Cpu.create ~features:(Config.hw_features config) () in
  cpu.Cpu.el2_handler <- Some (fun c _ -> Cpu.do_eret c);
  Arm.Cpu.poke_sysreg cpu Sysreg.HCR_EL2
    (if Config.is_paravirt config then 0L else Config.target_hcr config);
  if Config.is_neve config && not (Config.is_paravirt config) then
    Arm.Cpu.poke_sysreg cpu Sysreg.VNCR_EL2 (Int64.logor page 1L);
  cpu.Cpu.pstate <- Pstate.at Pstate.EL1;
  let insns =
    if Config.is_paravirt config then
      Hyp.Paravirt.rewrite config ~page_base:page insn
    else [ insn ]
  in
  List.iter (Cpu.exec cpu) insns;
  cpu.Cpu.meter.Cost.traps

let test_insn_level_equivalence =
  QCheck.Test.make ~count:2000
    ~name:"methodology: per-instruction hw == paravirt trap counts"
    pv_case_arb (fun (access, rt, is_read, vhe, neve) ->
      let insn =
        if is_read then Insn.Mrs (rt, access)
        else Insn.Msr (access, Insn.Reg rt)
      in
      let hw_mech = if neve then Config.Hw_neve else Config.Hw_v8_3 in
      let pv_mech = if neve then Config.Pv_neve else Config.Pv_v8_3 in
      match
        ( traps_of_one_insn ~mech:hw_mech ~vhe insn,
          traps_of_one_insn ~mech:pv_mech ~vhe insn )
      with
      | hw, pv -> hw = pv
      | exception Cpu.Undefined_instruction _ -> begin
          (* both worlds must agree the instruction is invalid *)
          match traps_of_one_insn ~mech:pv_mech ~vhe insn with
          | _ -> false
          | exception Cpu.Undefined_instruction _ -> true
          | exception Hyp.Paravirt.Would_undef _ -> true
        end
      | exception Hyp.Paravirt.Would_undef _ -> begin
          match traps_of_one_insn ~mech:hw_mech ~vhe insn with
          | _ -> false
          | exception Cpu.Undefined_instruction _ -> true
        end)

(* --- machine-level robustness: arbitrary workloads leave the stack
   consistent --- *)

type op = Op_hvc | Op_mmio | Op_ipi | Op_irq | Op_eoi

let ops_gen =
  QCheck.Gen.(list_size (int_range 1 12)
                (oneofl [ Op_hvc; Op_mmio; Op_ipi; Op_irq; Op_eoi ]))

let ops_arb =
  QCheck.make
    ~print:(fun l ->
      String.concat ","
        (List.map
           (function
             | Op_hvc -> "hvc" | Op_mmio -> "mmio" | Op_ipi -> "ipi"
             | Op_irq -> "irq" | Op_eoi -> "eoi")
           l))
    ops_gen

let machine_consistent (m : Machine.t) =
  Array.for_all
    (fun (cpu : Cpu.t) ->
      cpu.Cpu.pstate.Pstate.el = Pstate.EL1 && cpu.Cpu.depth = 0)
    m.Machine.cpus
  && Array.for_all
       (fun (h : Hyp.Host_hyp.t) ->
         (not h.Hyp.Host_hyp.vcpu.Hyp.Vcpu.in_vel2)
         && not h.Hyp.Host_hyp.in_l1)
       m.Machine.hosts

let run_ops config ops =
  let m = Machine.create ~ncpus:2 config Hyp.Host_hyp.Nested in
  Machine.boot m;
  List.iter
    (fun op ->
      match op with
      | Op_hvc -> Machine.hypercall m ~cpu:0
      | Op_mmio -> Machine.mmio_access m ~cpu:0 ~addr:0x0a00_0000L ~is_write:true
      | Op_ipi ->
        Machine.send_ipi m ~cpu:0 ~target:1 ~intid:5;
        (match Machine.vm_ack m ~cpu:1 with
         | Some v -> ignore (Machine.vm_eoi m ~cpu:1 ~vintid:v)
         | None -> ())
      | Op_irq -> Machine.device_irq m ~cpu:0 ~intid:Gic.Irq.virtio_net_spi
      | Op_eoi ->
        (match Machine.vm_ack m ~cpu:0 with
         | Some v -> ignore (Machine.vm_eoi m ~cpu:0 ~vintid:v)
         | None -> ()))
    ops;
  m

let test_machine_consistency mech name =
  QCheck.Test.make ~count:40 ~name ops_arb (fun ops ->
      machine_consistent (run_ops (Config.v mech) ops))

let test_machine_v83 =
  test_machine_consistency Config.Hw_v8_3
    "machine: consistent after arbitrary workloads (v8.3)"

let test_machine_neve =
  test_machine_consistency Config.Hw_neve
    "machine: consistent after arbitrary workloads (NEVE)"

let test_machine_pv =
  test_machine_consistency Config.Pv_neve
    "machine: consistent after arbitrary workloads (NEVE paravirt)"

(* traps are monotonically counted, never lost *)
let test_trap_accounting =
  QCheck.Test.make ~count:40 ~name:"machine: by-kind counts sum to the total"
    ops_arb (fun ops ->
      let m = run_ops (Config.v Config.Hw_v8_3) ops in
      Array.for_all
        (fun (cpu : Cpu.t) ->
          let by_kind =
            List.fold_left
              (fun acc k -> acc + Cost.traps_of_kind cpu.Cpu.meter k)
              0 Cost.all_trap_kinds
          in
          by_kind = cpu.Cpu.meter.Cost.traps)
        m.Machine.cpus)

let suite =
  [
    qtest test_route_total;
    qtest test_route_el2_never_traps;
    qtest test_route_v80_never_defers;
    qtest test_rewrite_runs_on_v80;
    qtest test_insn_level_equivalence;
    qtest test_machine_v83;
    qtest test_machine_neve;
    qtest test_machine_pv;
    qtest test_trap_accounting;
  ]
