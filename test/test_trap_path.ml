(* The allocation-free trap round trip: the compiled world-switch copies
   and the EL2 register-access path must be observably identical to the
   interpreted instructions they replace, and must stay allocation-free.

   - twin machines run the guest hypervisor's compiled context copies
     (Gaccess.save_ctx/restore_ctx) and the interpreted World_switch
     loops over Gaccess.ops, for every hardware configuration, and must
     end in identical states;
   - twin machines run the host's compiled l0_enter/l0_exit and the same
     loops interpreted instruction by instruction through Cpu.exec;
   - a property checks Cpu.mrs/msr against Cpu.exec of the same
     instruction over random HCR values, features, accesses and values;
   - Gc.minor_words pins the allocation of the copy kernels (none) and of
     a warm nested hypercall (a per-trap budget). *)

module Cpu = Arm.Cpu
module Insn = Arm.Insn
module Pstate = Arm.Pstate
module Sysreg = Arm.Sysreg
module Sysreg_file = Arm.Sysreg_file
module Memory = Arm.Memory
module Config = Hyp.Config
module Machine = Hyp.Machine
module Host_hyp = Hyp.Host_hyp
module Gaccess = Hyp.Gaccess
module Reglists = Hyp.Reglists
module WS = Hyp.World_switch

let check = Alcotest.check

(* --- observable machine state --- *)

type obs = {
  regs : (Sysreg.t * int64) list;
  words : (int64 * int64) list;
  meter : int * int * int * int * int list;
  pc : int64;
  data : int64;
  scratch : int64;
  copies : int;
  vel1 : (Sysreg.t * int64) list;
  vel2 : (Sysreg.t * int64) list;
}

let observe (m : Machine.t) ~copies0 =
  let cpu = m.Machine.cpus.(0) in
  let vcpu = m.Machine.hosts.(0).Host_hyp.vcpu in
  let mt = cpu.Cpu.meter in
  {
    regs = Sysreg_file.dump cpu.Cpu.sysregs;
    words = Memory.sorted_words m.Machine.mem;
    meter =
      ( mt.Cost.cycles, mt.Cost.insns, mt.Cost.traps, mt.Cost.mem_accesses,
        Array.to_list mt.Cost.by_kind );
    pc = cpu.Cpu.pc;
    data = Cpu.get_reg cpu Gaccess.data_reg;
    scratch = Cpu.get_reg cpu Cpu.scratch_reg;
    copies = WS.reg_copies () - copies0;
    vel1 = Sysreg_file.dump vcpu.Hyp.Vcpu.vel1;
    vel2 = Sysreg_file.dump vcpu.Hyp.Vcpu.vel2;
  }

let check_same what a b =
  let pairs = Alcotest.(list (pair string int64)) in
  let named l = List.map (fun (r, v) -> (Sysreg.name r, v)) l in
  check pairs (what ^ ": register file") (named a.regs) (named b.regs);
  check Alcotest.(list (pair int64 int64)) (what ^ ": memory") a.words b.words;
  check Alcotest.bool (what ^ ": meter") true (a.meter = b.meter);
  check Alcotest.int64 (what ^ ": pc") a.pc b.pc;
  check Alcotest.int64 (what ^ ": data register") a.data b.data;
  check Alcotest.int64 (what ^ ": scratch register") a.scratch b.scratch;
  check Alcotest.int (what ^ ": reg_copies") a.copies b.copies;
  check pairs (what ^ ": virtual EL1 file") (named a.vel1) (named b.vel1);
  check pairs (what ^ ": virtual EL2 file") (named a.vel2) (named b.vel2)

(* Identical, nontrivial contents for every register and context slot the
   copies touch, so a copy that moves the wrong word shows. *)
let seed_state (m : Machine.t) ~ctxs regs =
  let cpu = m.Machine.cpus.(0) in
  Array.iteri
    (fun k r ->
      Cpu.poke_sysreg cpu r (Int64.of_int (0x1000 + (17 * k)));
      List.iter
        (fun ctx ->
          Memory.write64 m.Machine.mem (WS.slot ctx r)
            (Int64.add ctx (Int64.of_int (0x7700 + k))))
        ctxs)
    regs

let configs =
  [
    ("v8.3", Config.v Config.Hw_v8_3, Expose.Policy.none);
    ("v8.3-vhe", Config.v ~guest_vhe:true Config.Hw_v8_3, Expose.Policy.none);
    ("v8.3-gicv2", Config.v ~gicv2:true Config.Hw_v8_3, Expose.Policy.none);
    ("neve", Config.v Config.Hw_neve, Expose.Policy.none);
    ("neve-vhe", Config.v ~guest_vhe:true Config.Hw_neve, Expose.Policy.none);
    ("neve-ooh", Config.v Config.Hw_neve, Fuzz.Diff.ooh_grant);
    ( "neve-vhe-ooh",
      Config.v ~guest_vhe:true Config.Hw_neve,
      Fuzz.Diff.ooh_grant );
  ]

let booted config expose =
  let m = Machine.create ~expose config Host_hyp.Nested in
  Machine.boot m;
  m

(* Run [f] as the guest hypervisor's handler of one nested hypercall: the
   state the world-switch copies really run in (virtual EL2, trap
   controls armed, inside a host trap). *)
let as_guest_hypervisor (m : Machine.t) f =
  let host = m.Machine.hosts.(0) in
  let saved = host.Host_hyp.on_vel2_entry in
  host.Host_hyp.on_vel2_entry <- Some (fun _ -> f ());
  Fun.protect
    ~finally:(fun () -> host.Host_hyp.on_vel2_entry <- saved)
    (fun () -> Machine.hypercall m ~cpu:0)

let reg_sets =
  [
    ("el1", Reglists.el1_state_arr);
    ("el0", Reglists.el0_state_arr);
    ("debug", Reglists.debug_state_arr);
    ("pmu", Reglists.pmu_state_arr);
  ]

(* Two context areas of the guest hypervisor's own region. *)
let m_ctx (m : Machine.t) =
  Int64.add m.Machine.hosts.(0).Host_hyp.vcpu.Hyp.Vcpu.ctx_base 0x100L

let test_gaccess_equivalence () =
  List.iter
    (fun (slug, config, expose) ->
      let vhe = config.Config.guest_vhe in
      let compiled = booted config expose in
      let interpreted = booted config expose in
      let ga m =
        match m.Machine.ghyps.(0) with
        | Some g -> g.Hyp.Guest_hyp.ga
        | None -> Alcotest.fail "nested machine without a guest hypervisor"
      in
      let ctx = m_ctx compiled and ctx2 = Int64.add (m_ctx compiled) 0x1000L in
      List.iter
        (fun (set, regs) ->
          List.iter
            (fun el12 ->
              let el12 = el12 && vhe in
              let what = Printf.sprintf "%s %s el12=%b" slug set el12 in
              let run m ~compiled_path =
                let copies0 = WS.reg_copies () in
                as_guest_hypervisor m (fun () ->
                    seed_state m ~ctxs:[ ctx; ctx2 ] regs;
                    let g = ga m in
                    if compiled_path then begin
                      Gaccess.save_ctx g ~el12 ~ctx regs;
                      Gaccess.restore_ctx g ~el12 ~ctx:ctx2 regs
                    end
                    else begin
                      let via = WS.vm_el1_access ~vhe:el12 in
                      WS.save_array (Gaccess.ops g) ~ctx ~via regs;
                      WS.restore_array (Gaccess.ops g) ~ctx:ctx2 ~via regs
                    end);
                observe m ~copies0
              in
              let a = run compiled ~compiled_path:true in
              let b = run interpreted ~compiled_path:false in
              check_same what a b)
            [ false; true ])
        reg_sets)
    configs

(* The host's exit-path loops, interpreted through Cpu.exec with no EL2
   shortcut: what l0_enter/l0_exit replay. *)
let exec_ops cpu : WS.ops =
  {
    WS.rd =
      (fun a ->
        Cpu.exec cpu (Insn.Mrs (Cpu.scratch_reg, a));
        Cpu.get_reg cpu Cpu.scratch_reg);
    wr = (fun a v -> Cpu.exec cpu (Insn.Msr (a, Insn.Imm v)));
    ld =
      (fun addr ->
        Cpu.exec cpu (Insn.Ldr (Cpu.scratch_reg, Insn.Abs addr));
        Cpu.get_reg cpu Cpu.scratch_reg);
    st =
      (fun addr v ->
        Cpu.set_reg cpu Cpu.scratch_reg v;
        Cpu.exec cpu (Insn.Str (Cpu.scratch_reg, Insn.Abs addr)));
  }

let interpreted_l0_enter (h : Host_hyp.t) =
  let o = exec_ops h.Host_hyp.cpu in
  Cost.charge h.Host_hyp.cpu.Cpu.meter (Host_hyp.table h).Cost.l0_exit_dispatch;
  WS.save_array o ~ctx:h.Host_hyp.guest_stash ~via:Sysreg.direct
    Reglists.el1_state_arr;
  WS.save_array o ~ctx:h.Host_hyp.guest_stash ~via:Sysreg.direct
    Reglists.el0_state_arr;
  WS.restore_array o ~ctx:h.Host_hyp.l0_ctx ~via:Sysreg.direct
    Reglists.el1_state_arr;
  WS.deactivate_traps o ~vhe:false

let interpreted_l0_exit (h : Host_hyp.t) =
  let o = exec_ops h.Host_hyp.cpu in
  WS.restore_array o ~ctx:h.Host_hyp.guest_stash ~via:Sysreg.direct
    Reglists.el1_state_arr;
  WS.restore_array o ~ctx:h.Host_hyp.guest_stash ~via:Sysreg.direct
    Reglists.el0_state_arr;
  WS.activate_traps o ~vhe:false
    ~hcr:(Host_hyp.hcr_for h ~vel2:h.Host_hyp.vcpu.Hyp.Vcpu.in_vel2);
  WS.write_stage2 o ~vttbr:h.Host_hyp.shadow_vttbr

let test_l0_equivalence () =
  List.iter
    (fun (slug, config, expose) ->
      (* the HCR the trap arrives under: the nested VM's, the guest
         hypervisor's, and an E2H one whose routes redirect (VHE-capable
         hardware only: the compiled restores normalize there) *)
      let hcrs =
        [ ("vm", Host_hyp.basic_hcr); ("vel2", Config.target_hcr config);
          ("e2h", Arm.Hcr.set (Config.target_hcr config) Arm.Hcr.e2h) ]
      in
      List.iter
        (fun (hslug, hcr) ->
          let what = Printf.sprintf "%s hcr=%s" slug hslug in
          let run ~compiled_path =
            let m = booted config expose in
            let h = m.Machine.hosts.(0) and cpu = m.Machine.cpus.(0) in
            let regs =
              Array.append Reglists.el1_state_arr Reglists.el0_state_arr
            in
            seed_state m ~ctxs:[ h.Host_hyp.guest_stash; h.Host_hyp.l0_ctx ]
              regs;
            Cpu.poke_sysreg cpu Sysreg.HCR_EL2 hcr;
            cpu.Cpu.pstate <- Pstate.at Pstate.EL2;
            let copies0 = WS.reg_copies () in
            if compiled_path then Host_hyp.l0_enter h
            else interpreted_l0_enter h;
            let entered = observe m ~copies0 in
            let copies0 = WS.reg_copies () in
            if compiled_path then Host_hyp.l0_exit h else interpreted_l0_exit h;
            (entered, observe m ~copies0)
          in
          let a_enter, a_exit = run ~compiled_path:true in
          let b_enter, b_exit = run ~compiled_path:false in
          check_same (what ^ " l0_enter") a_enter b_enter;
          check_same (what ^ " l0_exit") a_exit b_exit)
        hcrs)
    configs

(* --- the EL2 access path == Cpu.exec --- *)

let access_gen =
  QCheck.Gen.(
    map2
      (fun r alias ->
        match alias with
        | 0 -> Sysreg.direct r
        | 1 -> Sysreg.el12 r
        | _ -> Sysreg.el02 r)
      (oneofl Sysreg.all)
      (frequency [ (6, return 0); (1, return 1); (1, return 2) ]))

let el2_case_gen =
  QCheck.Gen.(
    tup5 access_gen
      (oneofl Arm.Features.[ V8_0; V8_1; V8_3; V8_4 ])
      (map Int64.of_int (int_bound 0xffff_ffff))
      ui64 bool)

let el2_case_arb =
  QCheck.make
    ~print:(fun (a, rev, hcr, v, is_read) ->
      Printf.sprintf "%s %s %s hcr=0x%Lx v=0x%Lx"
        (if is_read then "mrs" else "msr")
        (Sysreg.access_name a)
        (Arm.Features.revision_name rev)
        hcr v)
    el2_case_gen

let el2_cpu rev hcr =
  let cpu = Cpu.create ~features:(Arm.Features.v rev) () in
  Cpu.poke_sysreg cpu Sysreg.HCR_EL2 hcr;
  cpu.Cpu.pstate <- Pstate.at Pstate.EL2;
  cpu.Cpu.pc <- 0x7000_0000L;
  cpu

let outcome f = match f () with () -> "ok" | exception e -> Printexc.to_string e

let cpu_state (cpu : Cpu.t) =
  ( Sysreg_file.dump cpu.Cpu.sysregs,
    cpu.Cpu.pc,
    Array.to_list cpu.Cpu.regs,
    ( cpu.Cpu.meter.Cost.cycles, cpu.Cpu.meter.Cost.insns,
      cpu.Cpu.meter.Cost.traps ) )

let test_el2_path =
  QCheck.Test.make ~count:3000
    ~name:"Cpu.mrs/msr at EL2 == Cpu.exec of the same instruction"
    el2_case_arb (fun (access, rev, hcr, v, is_read) ->
      let a = el2_cpu rev hcr and b = el2_cpu rev hcr in
      (* a nonzero register value so a read has something to return *)
      Cpu.poke_sysreg a access.Sysreg.reg 0x5a5aL;
      Cpu.poke_sysreg b access.Sysreg.reg 0x5a5aL;
      let ra, rb =
        if is_read then
          ( outcome (fun () -> ignore (Cpu.mrs a access)),
            outcome (fun () -> Cpu.exec b (Insn.Mrs (Cpu.scratch_reg, access)))
          )
        else
          ( outcome (fun () -> Cpu.msr a access v),
            outcome (fun () -> Cpu.exec b (Insn.Msr (access, Insn.Imm v))) )
      in
      ra = rb && cpu_state a = cpu_state b)

(* --- allocation budget --- *)

let words_during f =
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  int_of_float (w1 -. w0)

let test_kernels_allocate_nothing () =
  List.iter
    (fun (slug, config, expose) ->
      let m = booted config expose in
      Machine.hypercall m ~cpu:0;
      let h = m.Machine.hosts.(0) and cpu = m.Machine.cpus.(0) in
      check Alcotest.bool (slug ^ ": a compiled l0 plan exists") true
        (h.Host_hyp.l0_plans <> []);
      let loops =
        Array.of_list
          (List.concat_map
             (fun (p : Host_hyp.l0_plan) ->
               [ p.Host_hyp.lp_save_el1; p.lp_save_el0; p.lp_rest_host;
                 p.lp_rest_el1; p.lp_rest_el0 ])
             h.Host_hyp.l0_plans)
      in
      let sr = cpu.Cpu.sysregs and mem = m.Machine.mem in
      let page = h.Host_hyp.page and vcpu = h.Host_hyp.vcpu in
      let skip = Array.make Sysreg.count false in
      let replay () =
        for k = 0 to Array.length loops - 1 do
          let l = loops.(k) in
          Sysreg_file.save sr l.Host_hyp.ll_regs mem ~base:l.Host_hyp.ll_base
            l.Host_hyp.ll_offs;
          Sysreg_file.restore sr l.Host_hyp.ll_regs mem
            ~base:l.Host_hyp.ll_base l.Host_hyp.ll_offs
        done;
        Core.Deferred_page.populate_from page ~el2:vcpu.Hyp.Vcpu.vel2
          ~el1:vcpu.Hyp.Vcpu.vel1;
        Core.Deferred_page.drain_into page ~el2:vcpu.Hyp.Vcpu.vel2
          ~el1:vcpu.Hyp.Vcpu.vel1 ~skip;
        Memory.copy64 mem ~src:h.Host_hyp.guest_stash ~dst:h.Host_hyp.l0_ctx
      in
      replay ();
      check Alcotest.int (slug ^ ": words allocated by the copy kernels") 0
        (words_during replay))
    configs

(* Minor words per trap of a warm nested hypercall, as measured by
   [dune runtest] (development profile) when the trap path became
   allocation-free: v8.3 130.7, neve 247.8 words/trap (the whole
   operation, guest side included; the remainder is mostly the boxed PC
   and general registers).  The bounds allow 10% on top; boxing creeping
   back into the per-trap path exceeds them. *)
let hypercall_budgets =
  [ ("v8.3", Config.v Config.Hw_v8_3, 143.);
    ("neve", Config.v Config.Hw_neve, 272.) ]

let test_hypercall_budget () =
  List.iter
    (fun (slug, config, bound) ->
      let m = booted config Expose.Policy.none in
      (* warm: plans compiled, memos grown to their working sets *)
      for _ = 1 to 5 do
        Machine.hypercall m ~cpu:0
      done;
      let iters = 20 in
      let traps0 = Machine.total_traps m in
      let words =
        words_during (fun () ->
            for _ = 1 to iters do
              Machine.hypercall m ~cpu:0
            done)
      in
      let traps = Machine.total_traps m - traps0 in
      let per_trap = float_of_int words /. float_of_int traps in
      Printf.eprintf "%s: %.2f minor words per trap\n%!" slug per_trap;
      if per_trap > bound then
        Alcotest.failf "%s: %.1f minor words per trap (budget %.0f)" slug
          per_trap bound)
    hypercall_budgets

(* --- shared immutable records --- *)

let test_shared_records () =
  List.iter
    (fun r ->
      List.iter
        (fun (mk, alias) ->
          let a = mk r in
          check Alcotest.bool (Sysreg.name r ^ ": shared access") true
            (a.Sysreg.reg = r && a.Sysreg.alias = alias && mk r == a))
        [ (Sysreg.direct, Sysreg.Direct); (Sysreg.el12, Sysreg.EL12);
          (Sysreg.el02, Sysreg.EL02) ])
    Sysreg.all;
  (* an out-of-range list register is not aliased to a neighbour *)
  let a = Sysreg.direct (Sysreg.ICH_LR_EL2 99) in
  check Alcotest.bool "ICH_LR99 keeps its number" true
    (a.Sysreg.reg = Sysreg.ICH_LR_EL2 99);
  (* every SPSR the decoder accepts round-trips through the shared
     PSTATE table, and the rest are rejected *)
  for m = 0 to 15 do
    for daif = 0 to 3 do
      for nzcv = 0 to 15 do
        let v =
          Int64.logor (Int64.of_int (m lor (daif lsl 6)))
            (Int64.shift_left (Int64.of_int nzcv) 28)
        in
        match (Pstate.of_spsr_opt v, m) with
        | Some p, (0 | 4 | 5 | 8 | 9) ->
          check Alcotest.int64 "SPSR round trip" v (Pstate.to_spsr p);
          check Alcotest.bool "shared" true
            (Pstate.of_spsr_opt v == Pstate.of_spsr_opt v)
        | None, (0 | 4 | 5 | 8 | 9) ->
          Alcotest.failf "legal SPSR 0x%Lx rejected" v
        | Some _, _ -> Alcotest.failf "illegal SPSR 0x%Lx accepted" v
        | None, _ -> ()
      done
    done
  done;
  List.iter
    (fun el ->
      let p = Pstate.at el in
      check Alcotest.bool "at = reset at el" true
        (p = { Pstate.reset with Pstate.el } && Pstate.at el == p))
    [ Pstate.EL0; Pstate.EL1; Pstate.EL2 ]

let suite =
  [
    ("shared access and PSTATE records are exact", `Quick, test_shared_records);
    ("compiled guest copies == interpreted loops", `Quick,
     test_gaccess_equivalence);
    ("compiled l0_enter/l0_exit == interpreted loops", `Quick,
     test_l0_equivalence);
    QCheck_alcotest.to_alcotest test_el2_path;
    ("copy kernels allocate nothing", `Quick, test_kernels_allocate_nothing);
    ("warm hypercall stays within its per-trap budget", `Quick,
     test_hypercall_budget);
  ]
