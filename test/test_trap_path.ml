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
   - Gc.minor_words pins the allocation of warm world-switch loops (none
     per copied register), of a warm nested hypercall (a per-trap
     budget), of checked and fault-planned exits (those of the unchecked
     twin) and of a VM's acknowledge and EOI (none). *)

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
    pc = Cpu.pc cpu;
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

(* The paravirtualized guest hypervisors: the funnel runs the patched
   instructions through the same sites and compiled copies. *)
let pv_configs =
  [
    ("pv-v8.3", Config.v Config.Pv_v8_3, Expose.Policy.none);
    ("pv-v8.3-vhe", Config.v ~guest_vhe:true Config.Pv_v8_3, Expose.Policy.none);
    ("pv-neve", Config.v Config.Pv_neve, Expose.Policy.none);
    ("pv-neve-vhe", Config.v ~guest_vhe:true Config.Pv_neve, Expose.Policy.none);
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

(* Every list the guest hypervisor's world switch copies, with the
   aliases it is copied under: the EL1 context through [_EL12] on a VHE
   configuration, the vGIC prefixes directly, and the VM timer under all
   three aliases.  Each is saved and restored, so a vGIC prefix is also
   restored and a restore prefix saved. *)
let reg_sets =
  let vgic name prefixes =
    List.map
      (fun n -> (Printf.sprintf "%s.(%d)" name n, prefixes.(n), `Direct))
      [ 0; 1; 4; Sysreg.lr_count ]
  in
  [
    ("el1", Reglists.el1_state_arr, `El12_on_vhe);
    ("el0", Reglists.el0_state_arr, `Direct);
    ("debug", Reglists.debug_state_arr, `Direct);
    ("pmu", Reglists.pmu_state_arr, `Direct);
    ("timer", Reglists.timer_el0_state_arr, `All);
  ]
  @ vgic "vgic_saved" Reglists.vgic_saved
  @ vgic "vgic_restored" Reglists.vgic_restored

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
        (fun (set, regs, aliases) ->
          List.iter
            (fun alias ->
              let what =
                Printf.sprintf "%s %s %s" slug set
                  (match alias with
                   | Sysreg.Direct -> "direct"
                   | Sysreg.EL12 -> "_EL12"
                   | Sysreg.EL02 -> "_EL02")
              in
              let run m ~compiled_path =
                let copies0 = WS.reg_copies () in
                as_guest_hypervisor m (fun () ->
                    seed_state m ~ctxs:[ ctx; ctx2 ] regs;
                    let g = ga m in
                    if compiled_path then begin
                      Gaccess.save_ctx g ~alias ~ctx regs;
                      Gaccess.restore_ctx g ~alias ~ctx:ctx2 regs
                    end
                    else begin
                      let via = WS.via alias in
                      WS.save_array (Gaccess.ops g) ~ctx ~via regs;
                      WS.restore_array (Gaccess.ops g) ~ctx:ctx2 ~via regs
                    end);
                observe m ~copies0
              in
              let a = run compiled ~compiled_path:true in
              let b = run interpreted ~compiled_path:false in
              check_same what a b)
            (match aliases with
             | `Direct -> [ Sysreg.Direct ]
             | `El12_on_vhe when vhe -> [ Sysreg.Direct; Sysreg.EL12 ]
             | `El12_on_vhe -> [ Sysreg.Direct ]
             | `All -> [ Sysreg.Direct; Sysreg.EL12; Sysreg.EL02 ]))
        reg_sets)
    (configs @ pv_configs)

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
  Cpu.set_pc cpu 0x7000_0000L;
  cpu

let outcome f = match f () with () -> "ok" | exception e -> Printexc.to_string e

let cpu_state (cpu : Cpu.t) =
  ( Sysreg_file.dump cpu.Cpu.sysregs,
    Cpu.pc cpu,
    Cpu.gprs cpu,
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

(* --- the funnel's route sites == routing afresh --- *)

(* A few accesses per NEVE class (Tables 3-5), aliases included, so the
   same sites recur under many routing states. *)
let memo_accesses =
  Array.of_list
    (List.map Sysreg.direct
       Sysreg.
         [ SCTLR_EL1; TPIDR_EL1; ESR_EL2; ELR_EL2; SCTLR_EL2; VTTBR_EL2;
           HCR_EL2; VMPIDR_EL2; CNTHP_CTL_EL2; CNTVOFF_EL2; ICH_LR_EL2 0;
           ICH_HCR_EL2; ICH_VTR_EL2; CurrentEL; CNTV_CTL_EL0 ]
     @ [ Sysreg.el12 Sysreg.SCTLR_EL1; Sysreg.el12 Sysreg.TTBR0_EL1;
         Sysreg.el02 Sysreg.CNTV_CTL_EL0 ])

(* The routing-state changes the sequence makes, each a choice among
   values that route some of the accesses above differently. *)
let hcr_bits = Arm.Hcr.[| nv; nv1; nv2; e2h |]
let masks =
  Arm.Trap_rules.
    [| nv2_off; { nv2_full with m_defer = false };
       { nv2_full with m_redirect = false };
       { nv2_full with m_cached = false } |]
let grants =
  Expose.Policy.
    [| none; all; of_list [ Timer ]; of_list [ Gic_lrs ] |]

(* Replay one random sequence on [m]: bursts of accesses through
   [access], alternately under the routing state the guest hypervisor
   runs in and under that state with one field changed (an HCR_EL2 bit,
   VNCR_EL2's BADDR or Enable, the EL, the NV2 mask, the OoH grant or
   the features), so the sites a burst routes are revisited under a
   state that differs from theirs in that field alone.  A trap's host
   handler reprograms HCR_EL2 on its way out, so the burst's HCR_EL2
   and EL are put back before each access.  Returns a per-access trail
   of outcomes and meter readings. *)
let memo_sequence (m : Machine.t) ~seed ~epochs access =
  let cpu = m.Machine.cpus.(0) in
  let page = m.Machine.hosts.(0).Host_hyp.vcpu.Hyp.Vcpu.page_base in
  let base_hcr = Cpu.peek_sysreg cpu Sysreg.HCR_EL2 in
  let base_vncr = Cpu.peek_sysreg cpu Sysreg.VNCR_EL2 in
  let base_features = cpu.Cpu.features and base_mask = cpu.Cpu.nv2_mask in
  let base_expose = cpu.Cpu.expose in
  let older = Arm.Features.v Arm.Features.V8_3 in
  let rng = Random.State.make [| seed |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let trail = Buffer.create 4096 in
  let burst ~hcr ~el =
    for _ = 1 to 8 do
      Cpu.poke_sysreg cpu Sysreg.HCR_EL2 hcr;
      cpu.Cpu.pstate <- Pstate.at el;
      let a = pick memo_accesses in
      let is_read = Random.State.bool rng in
      let v = Random.State.int64 rng 0x1_0000L in
      let result = outcome (fun () -> access a ~is_read v) in
      let mt = cpu.Cpu.meter in
      Printf.bprintf trail "%s %d/%d/%d/%Lx;" result mt.Cost.cycles
        mt.Cost.traps mt.Cost.mem_accesses
        (Cpu.get_reg cpu Gaccess.data_reg)
    done
  in
  for _ = 1 to epochs do
    Cpu.poke_sysreg cpu Sysreg.VNCR_EL2 base_vncr;
    cpu.Cpu.features <- base_features;
    cpu.Cpu.nv2_mask <- base_mask;
    cpu.Cpu.expose <- base_expose;
    burst ~hcr:base_hcr ~el:Pstate.EL1;
    match Random.State.int rng 6 with
    | 0 -> burst ~hcr:(Int64.logxor base_hcr (pick hcr_bits)) ~el:Pstate.EL1
    | 1 ->
      (* move BADDR, as Section 6.2's translated L1 page does, or flip
         Enable *)
      Cpu.poke_sysreg cpu Sysreg.VNCR_EL2
        (if Random.State.bool rng then Int64.logxor base_vncr 1L
         else
           Int64.logor
             (pick [| Int64.add page 0x1000L; 0x5800_0000L |])
             (Int64.logand base_vncr 1L));
      burst ~hcr:base_hcr ~el:Pstate.EL1
    | 2 -> burst ~hcr:base_hcr ~el:Pstate.EL2
    | 3 ->
      cpu.Cpu.nv2_mask <- pick masks;
      burst ~hcr:base_hcr ~el:Pstate.EL1
    | 4 ->
      cpu.Cpu.expose <- pick grants;
      burst ~hcr:base_hcr ~el:Pstate.EL1
    | _ ->
      cpu.Cpu.features <- older;
      burst ~hcr:base_hcr ~el:Pstate.EL1
  done;
  Buffer.contents trail

let test_route_memo_exact () =
  List.iter
    (fun (slug, config, expose) ->
      List.iter
        (fun seed ->
          let run ~memo =
            let m = booted config expose in
            let copies0 = WS.reg_copies () in
            let trail = ref "" in
            as_guest_hypervisor m (fun () ->
                let cpu = m.Machine.cpus.(0) in
                let ga =
                  match m.Machine.ghyps.(0) with
                  | Some g -> g.Hyp.Guest_hyp.ga
                  | None -> Alcotest.fail "no guest hypervisor"
                in
                (* the instruction the funnel stands for: patched under
                   a paravirt config *)
                let image insn =
                  if Config.is_paravirt config then
                    Hyp.Paravirt.patch config ~page_base:ga.Gaccess.page_base
                      ~slot:Hyp.Paravirt.Absolute insn
                  else insn
                in
                let access a ~is_read v =
                  if memo then
                    if is_read then ignore (Gaccess.rd ga a)
                    else Gaccess.wr ga a v
                  else if is_read then
                    Cpu.exec cpu (image (Insn.Mrs (Gaccess.data_reg, a)))
                  else begin
                    Cpu.set_reg cpu Gaccess.data_reg v;
                    Cpu.exec cpu
                      (image (Insn.Msr (a, Insn.Reg Gaccess.data_reg)))
                  end
                in
                trail := memo_sequence m ~seed ~epochs:60 access);
            (!trail, observe m ~copies0)
          in
          let trail_a, a = run ~memo:true in
          let trail_b, b = run ~memo:false in
          let what = Printf.sprintf "%s seed %d" slug seed in
          check Alcotest.string (what ^ ": per-step trail") trail_b trail_a;
          check_same what a b)
        [ 1; 2; 3 ])
    (configs @ pv_configs)

(* The host's EL2 accesses test HCR_EL2.E2H as a raw bit: running
   between HCR_EL2 = 0 (deactivate_traps) and the guest's value, they
   must not re-decode the view the guest's accesses use. *)
let test_el2_path_keeps_hcr_view () =
  List.iter
    (fun rev ->
      let cpu = Cpu.create ~features:(Arm.Features.v rev) () in
      let guest_hcr = List.fold_left Arm.Hcr.set 0L Arm.Hcr.[ vm; imo; nv ] in
      let file = Sysreg_file.create () in
      let guest () =
        Cpu.poke_sysreg cpu Sysreg.HCR_EL2 guest_hcr;
        cpu.Cpu.pstate <- Pstate.at Pstate.EL1;
        Cpu.exec cpu (Insn.Mrs (Gaccess.data_reg, Sysreg.direct Sysreg.TPIDR_EL1))
      in
      let host () =
        Cpu.poke_sysreg cpu Sysreg.HCR_EL2 0L;
        cpu.Cpu.pstate <- Pstate.at Pstate.EL2;
        (* registers with an E2H twin, and one without *)
        ignore (Cpu.mrs cpu (Sysreg.direct Sysreg.SCTLR_EL1));
        Cpu.msr_from cpu (Sysreg.direct Sysreg.TCR_EL1) file Sysreg.TCR_EL1;
        Cpu.msr cpu (Sysreg.direct Sysreg.ELR_EL1) 0x1000L;
        Cpu.mrs_into cpu (Sysreg.direct Sysreg.VBAR_EL1) file Sysreg.VBAR_EL1;
        Cpu.msr_from cpu (Sysreg.direct Sysreg.VTTBR_EL2) file
          Sysreg.VTTBR_EL2
      in
      guest ();
      let view = cpu.Cpu.hcr_cached in
      for _ = 1 to 3 do
        host ();
        guest ()
      done;
      check Alcotest.bool
        (Arm.Features.revision_name rev ^ ": the guest's HCR view survives")
        true
        (cpu.Cpu.hcr_cached == view))
    Arm.Features.[ V8_0; V8_1; V8_3; V8_4 ]

(* A site table routes every number it is asked for; past its capacity
   a number runs unmemoized, with the same effect. *)
let test_site_table_overflow () =
  let n = Arm.Route_key.max_sites + 40 in
  let insn_of i =
    Insn.Mrs (Gaccess.data_reg, Sysreg.direct (Sysreg.of_index (i mod Sysreg.count)))
  in
  let a = el2_cpu Arm.Features.V8_4 0L and b = el2_cpu Arm.Features.V8_4 0L in
  let tbl = Arm.Route_key.table n insn_of in
  for round = 1 to 2 do
    for i = 0 to n - 1 do
      Arm.Route_key.exec_id a tbl i;
      Cpu.exec b (insn_of i);
      if cpu_state a <> cpu_state b then
        Alcotest.failf "round %d, number %d: state differs" round i
    done
  done

(* --- allocation budget --- *)

let words_during f =
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  int_of_float (w1 -. w0)

(* Minor words of warm world-switch loops through their public entry
   points, as measured by [dune runtest] (development profile, which
   inlines nothing across modules; release allocates less): an
   [l0_enter] + [l0_exit] pair (72 register copies, three loops) on every
   configuration, and a guest [save_ctx] + [restore_ctx] pair on the
   NEVE ones, which must cost the same for the whole EL1 context as for
   one register — the kernels allocate nothing per copied register.  The
   deferred-page kernels ([populate_from], [drain_into]) and
   [Memory.copy64] allocate nothing at all. *)
let l0_pair_words = 18
let ga_pair_words = 12

let test_kernels_allocate_nothing () =
  List.iter
    (fun (slug, config, expose) ->
      let m = booted config expose in
      Machine.hypercall m ~cpu:0;
      let h = m.Machine.hosts.(0) and cpu = m.Machine.cpus.(0) in
      let interrupted = cpu.Cpu.pstate in
      cpu.Cpu.pstate <- Pstate.at Pstate.EL2;
      let l0_pair () =
        Host_hyp.l0_enter h;
        Host_hyp.l0_exit h
      in
      l0_pair ();
      let words = words_during l0_pair in
      cpu.Cpu.pstate <- interrupted;
      if words > l0_pair_words then
        Alcotest.failf "%s: l0_enter + l0_exit allocated %d words (pinned %d)"
          slug words l0_pair_words;
      (* the deferred-page and stash copies of a trapped eret *)
      let mem = m.Machine.mem and page = h.Host_hyp.page in
      let vcpu = h.Host_hyp.vcpu in
      let skip = Array.make Sysreg.count false in
      let page_copies () =
        Core.Deferred_page.populate_from page ~el2:vcpu.Hyp.Vcpu.vel2
          ~el1:vcpu.Hyp.Vcpu.vel1;
        Core.Deferred_page.drain_into page ~el2:vcpu.Hyp.Vcpu.vel2
          ~el1:vcpu.Hyp.Vcpu.vel1 ~skip;
        Memory.copy64 mem ~src:h.Host_hyp.guest_stash ~dst:h.Host_hyp.l0_ctx
      in
      page_copies ();
      check Alcotest.int (slug ^ ": words allocated by the page kernels") 0
        (words_during page_copies);
      match m.Machine.ghyps.(0) with
      | Some gh when Config.is_neve config ->
        as_guest_hypervisor m (fun () ->
            let g = gh.Hyp.Guest_hyp.ga and ctx = m_ctx m in
            let ga_words regs =
              let pair () =
                Gaccess.save_ctx g ~alias:Sysreg.Direct ~ctx regs;
                Gaccess.restore_ctx g ~alias:Sysreg.Direct ~ctx regs
              in
              pair ();
              words_during pair
            in
            let all = ga_words Reglists.el1_state_arr in
            let one = ga_words [| Sysreg.TPIDR_EL1 |] in
            check Alcotest.int (slug ^ ": guest pair, per register") one all;
            if all > ga_pair_words then
              Alcotest.failf
                "%s: save_ctx + restore_ctx allocated %d words (pinned %d)"
                slug all ga_pair_words)
      | _ -> ())
    configs

(* A trap entry and its eret: a frame pushed and popped by two blits of
   the unboxed word file, the PC moved as a word. *)
let test_bare_trap_allocates_nothing () =
  let cpu = Cpu.create ~features:(Arm.Features.v Arm.Features.V8_3) () in
  Cpu.poke_sysreg cpu Sysreg.HCR_EL2
    (List.fold_left Arm.Hcr.set 0L [ Arm.Hcr.vm; Arm.Hcr.nv ]);
  cpu.Cpu.pstate <- Pstate.at Pstate.EL1;
  cpu.Cpu.el2_handler <- Some (fun c _ -> Cpu.do_eret c);
  let entry =
    { Arm.Exn.target = Pstate.EL2; ec = Arm.Exn.EC_hvc64; iss = 0;
      fault_addr = None }
  in
  let round_trips () =
    for _ = 1 to 100 do
      Cpu.exception_entry cpu entry
    done
  in
  round_trips ();
  check Alcotest.int "words allocated by 100 trap entries and erets" 0
    (words_during round_trips);
  check Alcotest.int "no frame left" 0 cpu.Cpu.depth;
  check Alcotest.bool "back at EL1" true
    (cpu.Cpu.pstate.Pstate.el = Pstate.EL1)

(* Minor words per trap of warm nested operations (the whole operation,
   guest side included), as measured by [dune runtest] (development
   profile) once every loop of the guest hypervisor's world switch runs
   through the funnel's copier, its single accesses are built once, a
   guest's IPI write replays its route site, a trap raises the entry
   its cached action carries, the host decodes a syndrome by its bits,
   and the guest hypervisor keeps the exit information, a list
   register's word and its MMIO bookkeeping as words:

                  hypercall   Device I/O   Virtual IPI
     v8.3              23.2          23.5          23.6
     v8.3-vhe          23.2          24.0          24.1
     neve              25.9          29.3          29.1
     neve-vhe          23.8          27.2          27.2
     neve-ooh          29.3          34.3          34.7
     neve-vhe-ooh      26.3          31.3          31.9
     pv-v8.3           23.2          23.5          23.6
     pv-neve           25.9          29.3          29.1

   The paravirtualized host reads an [hvc] operand's fields as ints
   ([Paravirt.op_kind] and its readers), building no record per trapped
   access, so a paravirtualized column allocates what its hardware twin
   does.

   What is left is mostly values boxed where they cross a module
   boundary (the development profile inlines nothing across modules).
   The bounds allow 10% on top; boxing or routing creeping back into the
   per-trap path exceeds them. *)
let op_budgets =
  [ ("v8.3", Config.v Config.Hw_v8_3, Expose.Policy.none, (25.5, 25.9, 25.9));
    ( "v8.3-vhe", Config.v ~guest_vhe:true Config.Hw_v8_3,
      Expose.Policy.none, (25.5, 26.4, 26.5) );
    ("neve", Config.v Config.Hw_neve, Expose.Policy.none, (28.4, 32.2, 32.1));
    ( "neve-vhe", Config.v ~guest_vhe:true Config.Hw_neve,
      Expose.Policy.none, (26.1, 30.0, 29.9) );
    ("neve-ooh", Config.v Config.Hw_neve, Fuzz.Diff.ooh_grant, (32.3, 37.8, 38.2));
    ( "neve-vhe-ooh", Config.v ~guest_vhe:true Config.Hw_neve,
      Fuzz.Diff.ooh_grant, (29.0, 34.5, 35.1) );
    ("pv-v8.3", Config.v Config.Pv_v8_3, Expose.Policy.none, (25.5, 25.9, 25.9));
    ("pv-neve", Config.v Config.Pv_neve, Expose.Policy.none, (28.4, 32.2, 32.1)) ]

let test_op_budgets () =
  List.iter
    (fun (slug, config, expose, (b_hvc, b_mmio, b_ipi)) ->
      (* two vCPUs: the IPI's target is vCPU 1 *)
      let m = Workloads.Scenario.make_arm ~expose (Workloads.Scenario.Arm_nested config) in
      List.iter
        (fun (bench, bound) ->
          let op = Workloads.Micro.arm_op m bench in
          (* warm: plans compiled, sites routed, memos grown *)
          for _ = 1 to 5 do
            op ()
          done;
          let iters = 20 in
          let traps0 = Machine.total_traps m in
          let words =
            words_during (fun () ->
                for _ = 1 to iters do
                  op ()
                done)
          in
          let traps = Machine.total_traps m - traps0 in
          let per_trap = float_of_int words /. float_of_int traps in
          Printf.eprintf "%s %s: %.2f minor words per trap\n%!" slug
            (Workloads.Micro.name bench) per_trap;
          if per_trap > bound then
            Alcotest.failf "%s %s: %.1f minor words per trap (budget %.1f)"
              slug (Workloads.Micro.name bench) per_trap bound)
        Workloads.Micro.
          [ (Hypercall, b_hvc); (Device_io, b_mmio); (Virtual_ipi, b_ipi) ])
    op_budgets

(* More distinct trapping syndromes than the 128 slots the trap-entry
   and syndrome memos once had: a warm ARMv8.3 guest hypervisor reads
   every EL2 register that traps (the GIC's aside) into each of x0..x3,
   through route sites routed once, one site per syndrome.  Each pass
   must allocate the same words: a trap raises the entry its cached
   action carries and the host decodes the syndrome by its bits, so
   nothing is rebuilt for a syndrome seen before, however many others
   came between. *)
let test_many_syndromes_do_not_thrash () =
  let m = booted (Config.v Config.Hw_v8_3) Expose.Policy.none in
  as_guest_hypervisor m (fun () ->
      let cpu = m.Machine.cpus.(0) in
      let sites =
        List.filter (fun r -> Sysreg.min_el r = Pstate.EL2) Sysreg.all
        |> List.concat_map (fun r ->
               let insn rt = Insn.Mrs (rt, Sysreg.direct r) in
               match Cpu.route cpu (insn 0) with
               | Arm.Trap_rules.Trap_to_el2 _ when not (Sysreg.is_gic_ich r) ->
                 List.init 4 (fun rt -> Arm.Route_key.site (insn rt))
               | _ -> [])
        |> Array.of_list
      in
      let n = Array.length sites in
      check Alcotest.bool
        (Printf.sprintf "%d distinct syndromes, more than 128" n)
        true (n > 128);
      let traps0 = Machine.total_traps m in
      let pass () = Array.iter (fun s -> Arm.Route_key.exec cpu s) sites in
      let words = Array.init 50 (fun _ -> words_during pass) in
      check Alcotest.int "every pass traps once per site" (50 * n)
        (Machine.total_traps m - traps0);
      check Alcotest.int "words of the 50th pass (those of the 2nd)"
        words.(1) words.(49))

(* The invariant checker and the fault plan cost nothing while nothing
   fails: a warm hypercall, MMIO exit and device interrupt (delivered,
   acknowledged, completed) allocate exactly the minor words on a checked
   machine, and on one under a fault plan whose events lie far beyond
   the run, that they allocate on the unchecked twin. *)
let test_checked_allocates_like_unchecked () =
  let ops =
    [ ("hypercall", fun m -> Machine.hypercall m ~cpu:0);
      ( "MMIO exit",
        fun m ->
          Machine.mmio_access m ~cpu:0 ~addr:Workloads.Micro.virtio_mmio_base
            ~is_write:true );
      ( "device IRQ",
        fun m ->
          Machine.device_irq m ~cpu:0 ~intid:Gic.Irq.virtio_net_spi;
          match Machine.vm_ack m ~cpu:0 with
          | Some v -> ignore (Machine.vm_eoi m ~cpu:0 ~vintid:v : bool)
          | None -> Alcotest.fail "the device interrupt was not pending" ) ]
  in
  let far_plan () = Fault.Plan.make ~seed:3 ~faults:4 ~horizon:max_int in
  List.iter
        (fun (slug, config) ->
          let twin ?fault_plan check_invariants =
            let m =
              Machine.create ?fault_plan ~check_invariants config
                Host_hyp.Nested
            in
            Machine.boot m;
            m
          in
          let plain = twin false
          and checked = twin true
          and planned = twin ~fault_plan:(far_plan ()) false in
          List.iter
            (fun (what, op) ->
              let words m =
                for _ = 1 to 5 do
                  op m
                done;
                words_during (fun () ->
                    for _ = 1 to 20 do
                      op m
                    done)
              in
              let w = words plain in
              check Alcotest.int
                (Printf.sprintf "%s %s: checked words" slug what)
                w (words checked);
              check Alcotest.int
                (Printf.sprintf "%s %s: fault-planned words" slug what)
                w (words planned))
            ops;
          check Alcotest.int (slug ^ ": no violation") 0
            (Machine.violation_count checked);
          check Alcotest.bool (slug ^ ": no fault fired") true
            (Fault.Plan.injected (Option.get planned.Machine.fault) = []))
        [ ("v8.3", Config.v Config.Hw_v8_3);
          ("neve", Config.v Config.Hw_neve);
          ("neve-vhe", Config.v ~guest_vhe:true Config.Hw_neve) ]

(* A VM acknowledging and completing a virtual interrupt works on its
   list registers in place. *)
let test_vm_ack_eoi_allocate_nothing () =
  let m = booted (Config.v Config.Hw_neve) Expose.Policy.none in
  let c = m.Machine.cpus.(0) in
  let pending =
    Gic.Vgic.encode_lr
      { Gic.Vgic.empty_lr with Gic.Vgic.lr_state = Gic.Irq.Pending;
                               lr_vintid = 27 }
  in
  let ack_eoi () =
    for _ = 1 to 100 do
      Cpu.poke_sysreg c (Sysreg.ICH_LR_EL2 2) pending;
      match Machine.vm_ack m ~cpu:0 with
      | Some v -> ignore (Machine.vm_eoi m ~cpu:0 ~vintid:v : bool)
      | None -> Alcotest.fail "the planted interrupt was not pending"
    done
  in
  ack_eoi ();
  check Alcotest.int "words allocated by 100 vm_ack + vm_eoi" 0
    (words_during ack_eoi);
  check Alcotest.int64 "the LR reads empty" (Gic.Vgic.encode_lr Gic.Vgic.empty_lr)
    (Cpu.peek_sysreg c (Sysreg.ICH_LR_EL2 2))

(* Minor words per iteration of a warm interpreted loop of EL2 accesses
   (mrs SCTLR_EL1; msr TPIDR_EL1; mrs ESR_EL2; sub; cbnz), as measured
   by [dune runtest] (development profile), 1,000 iterations in one run:
   0.003 words, the 3 words of the run's boxed loop count (an iteration
   itself allocates nothing; the dispatch test below pins that exactly).
   The flip variant writes HCR_EL2 (E2H set, then clear) before each run
   of 10 iterations, so every run re-routes the block: 5.6 words per
   iteration.  The bounds allow 10% on top; a routing check that boxes,
   or a re-route that allocates per op, exceeds them. *)
let interp_loop_budgets = [ (false, 0.0033); (true, 6.2) ]

let test_interp_loop_budget () =
  let d = Sysreg.direct in
  List.iter
    (fun (flip, bound) ->
      let cpu = el2_cpu Arm.Features.V8_4 0L in
      let entry = Cpu.pc cpu in
      Arm.Interp.load_program cpu.Cpu.mem ~base:entry
        [ Insn.Mrs (1, d Sysreg.SCTLR_EL1);
          Insn.Msr (d Sysreg.TPIDR_EL1, Insn.Reg 1);
          Insn.Mrs (2, d Sysreg.ESR_EL2);
          Insn.Sub (0, 0, Insn.Imm 1L);
          Insn.Cbnz (0, -4) ];
      let run iters =
        Cpu.set_reg cpu 0 (Int64.of_int iters);
        match Arm.Interp.run cpu ~entry ~max_insns:(10 * iters) with
        | Arm.Interp.Breakpoint -> ()
        | o -> Alcotest.failf "loop ended %a" Arm.Interp.pp_outcome o
      in
      let runs, iters = if flip then (100, 10) else (1, 1000) in
      let rounds () =
        for k = 1 to runs do
          if flip then
            Cpu.poke_sysreg cpu Sysreg.HCR_EL2
              (if k land 1 = 1 then Arm.Hcr.e2h else 0L);
          run iters
        done
      in
      rounds ();
      let per_iter =
        float_of_int (words_during rounds) /. float_of_int (runs * iters)
      in
      let what = if flip then "HCR_EL2 flipped per run" else "steady" in
      Printf.eprintf "interpreted EL2 loop, %s: %.3f minor words per iteration\n%!"
        what per_iter;
      if per_iter > bound then
        Alcotest.failf "interpreted EL2 loop, %s: %.4f minor words per iteration (budget %.4f)"
          what per_iter bound)
    interp_loop_budgets

(* A warm interpreted loop allocates nothing per iteration however many
   blocks an iteration enters: [sub; cbnz] (one block), and the same
   loop with one and with two [b .+4] blocks inserted.  A dispatch
   builds no closure and boxes no PC.  Runs of 1,000 and 2,000
   iterations allocate the same words. *)
let test_interp_dispatch_allocates_nothing () =
  List.iter
    (fun hops ->
      let cpu = el2_cpu Arm.Features.V8_4 0L in
      let entry = Cpu.pc cpu in
      Arm.Interp.load_program cpu.Cpu.mem ~base:entry
        ((Insn.Sub (0, 0, Insn.Imm 1L) :: List.init hops (fun _ -> Insn.B 1))
         @ [ Insn.Cbnz (0, -(hops + 1)) ]);
      let run iters () =
        Cpu.set_reg cpu 0 (Int64.of_int iters);
        match Arm.Interp.run cpu ~entry ~max_insns:(10 * iters) with
        | Arm.Interp.Breakpoint -> ()
        | o -> Alcotest.failf "loop ended %a" Arm.Interp.pp_outcome o
      in
      run 10 ();
      let short = run 1000 and long = run 2000 in
      let w_short = words_during short in
      let w_long = words_during long in
      check Alcotest.int
        (Printf.sprintf "%d blocks per iteration: words of 1,000 more iterations"
           (hops + 1))
        0 (w_long - w_short))
    [ 0; 1; 2 ]

(* A cold [Xlate.lookup] (its words already decoded) allocates only what
   the block keeps: the op array, one box per op (2 words a plain op, 3
   a routed one) and the block record (6 words) with its boxed entry
   address (3).  Blocks ending in a branch, at the halt marker and at
   the size cap. *)
let test_cold_lookup_allocates_its_block () =
  let d = Sysreg.direct in
  List.iter
    (fun (what, insns) ->
      let cpu = el2_cpu Arm.Features.V8_4 0L in
      let mem = cpu.Cpu.mem and xc = cpu.Cpu.xlate in
      Arm.Interp.load_program mem ~base:(Cpu.pc cpu) insns;
      let lookup () =
        Arm.Xlate.lookup xc mem cpu.Cpu.regs Cpu.pc_offset
          ~gen:(Memory.code_gen mem)
      in
      let blk = lookup () in
      Arm.Xlate.flush xc;
      let words = words_during (fun () -> ignore (lookup ())) in
      let ops = blk.Arm.Xlate.ops in
      let bound =
        Array.fold_left
          (fun acc op ->
            acc + match op with Arm.Xlate.Plain _ -> 2 | Arm.Xlate.Routed _ -> 3)
          (Array.length ops + 1 + 6 + 3)
          ops
      in
      if words > bound then
        Alcotest.failf "%s (%d ops): a cold lookup allocates %d words (at most %d)"
          what (Array.length ops) words bound)
    [ ( "branch",
        [ Insn.Mrs (1, d Sysreg.SCTLR_EL1);
          Insn.Msr (d Sysreg.TPIDR_EL1, Insn.Reg 1);
          Insn.Add (2, 1, Insn.Imm 4L);
          Insn.Sub (0, 0, Insn.Imm 1L);
          Insn.Cbnz (0, -4) ] );
      ("halt", [ Insn.Mov (3, Insn.Imm 7L); Insn.Mrs (2, d Sysreg.ESR_EL2) ]);
      ("size cap", List.init 80 (fun i -> Insn.Add (i mod 8, i mod 8, Insn.Imm 1L))) ]

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
    ("funnel route sites == routing afresh", `Quick, test_route_memo_exact);
    ("route site tables past their capacity", `Quick, test_site_table_overflow);
    ("EL2 accesses keep the guest's decoded HCR", `Quick,
     test_el2_path_keeps_hcr_view);
    ("copy kernels allocate nothing", `Quick, test_kernels_allocate_nothing);
    ("a trap entry and its eret allocate nothing", `Quick,
     test_bare_trap_allocates_nothing);
    ("warm hypercall stays within its per-trap budget, as do MMIO and IPI",
     `Quick,
     test_op_budgets);
    ("more trapping syndromes than a memo held do not thrash", `Quick,
     test_many_syndromes_do_not_thrash);
    ("checked and fault-planned exits allocate like unchecked ones", `Quick,
     test_checked_allocates_like_unchecked);
    ("vm_ack + vm_eoi allocate nothing", `Quick,
     test_vm_ack_eoi_allocate_nothing);
    ("warm interpreted EL2 loop stays within its per-iteration budget",
     `Quick,
     test_interp_loop_budget);
    ("a warm block dispatch allocates nothing", `Quick,
     test_interp_dispatch_allocates_nothing);
    ("a cold block lookup allocates only its block", `Quick,
     test_cold_lookup_allocates_its_block);
  ]
