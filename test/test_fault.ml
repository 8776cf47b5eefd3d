(* Tests for the fault layer: the seed-driven plan is deterministic, the
   injection hooks in the distributor and the stage-2 walker do what they
   claim, the invariant checker flags planted inconsistencies, and —
   the acceptance property of the robustness work — every register the
   world switch touches can be trapped under every scenario and either
   completes or injects architecturally, never escaping as an anonymous
   [Invalid_argument]/[Failure]. *)

module Sysreg = Arm.Sysreg
module Cpu = Arm.Cpu
module Insn = Arm.Insn
module Pstate = Arm.Pstate
module Exn = Arm.Exn
module Config = Hyp.Config
module Machine = Hyp.Machine
module WS = Hyp.World_switch
module Plan = Fault.Plan
module Invariants = Fault.Invariants

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- the plan is deterministic and one-shot --- *)

let test_plan_deterministic () =
  let seed = 123 in
  let mk () = Plan.make ~seed ~faults:16 ~horizon:5000 in
  let drain p =
    let fired = ref [] in
    for traps = 1 to 5000 do
      List.iter (fun k -> fired := (traps, k) :: !fired) (Plan.due p ~traps)
    done;
    List.rev !fired
  in
  let a = drain (mk ()) and b = drain (mk ()) in
  check Alcotest.bool
    (Printf.sprintf "same seed, same fired sequence (seed=%d)" seed)
    true (a = b);
  check Alcotest.int
    (Printf.sprintf "all events fire within the horizon (seed=%d)" seed)
    16 (List.length a);
  let p = mk () in
  let all = Plan.due p ~traps:5000 in
  check Alcotest.int
    (Printf.sprintf "one big poll pops everything (seed=%d)" seed)
    16 (List.length all);
  check Alcotest.int
    (Printf.sprintf "events fire exactly once (seed=%d)" seed)
    0
    (List.length (Plan.due p ~traps:5000))

let test_plan_kind_filter () =
  let seed = 7 in
  let p = Plan.make ~seed ~faults:32 ~horizon:100 in
  let s2 = Plan.due ~kind:Plan.S2_fault p ~traps:100 in
  check Alcotest.bool
    (Printf.sprintf "kind filter returns only that kind (seed=%d)" seed)
    true
    (List.for_all (fun k -> k = Plan.S2_fault) s2);
  let rest = Plan.due p ~traps:100 in
  check Alcotest.bool
    (Printf.sprintf "filtered events were consumed (seed=%d)" seed)
    true
    (List.for_all (fun k -> k <> Plan.S2_fault) rest);
  check Alcotest.int
    (Printf.sprintf "nothing is lost between the two polls (seed=%d)" seed)
    32
    (List.length s2 + List.length rest)

let test_corrupt_changes_value () =
  let seed = 99 in
  let p = Plan.make ~seed ~faults:1 ~horizon:10 in
  let v = 0xdead_beefL in
  check Alcotest.bool
    (Printf.sprintf "corruption never returns the input (seed=%d)" seed)
    true
    (Plan.corrupt p v <> v)

(* --- the stage-2 walker's injection hook --- *)

(* A mapped page walks; with the memory's hook taking its address, the
   same walk misses at level 1 without reading the tables, and a walk
   the hook leaves alone still resolves. *)
let test_walk_inject () =
  let mem = Arm.Memory.create () in
  let s2 = Mmu.Stage2.create mem (Mmu.Walk.allocator ~start:0x10_0000L) ~vmid:1 in
  List.iter
    (fun ipa -> Mmu.Stage2.map_page s2 ~ipa ~pa:(Int64.add ipa 0x100_0000L) ~perms:Mmu.Pte.rwx)
    [ 0x2000L; 0x3000L ];
  let walk ipa = Mmu.Walk.walk mem ~base:s2.Mmu.Stage2.base ~ia:ipa ~is_write:false in
  let resolves ipa = match walk ipa with Ok _ -> true | Error _ -> false in
  check Alcotest.bool "the page walks unarmed" true (resolves 0x2000L);
  mem.Arm.Memory.s2_inject <- (fun ia -> ia = 0x2000L);
  check Alcotest.bool "the armed hook fails the walk at level 1" true
    (walk 0x2000L = Error { Mmu.Walk.f_level = 1; f_ia = 0x2000L; f_reason = `Translation });
  check Alcotest.bool "a walk the hook leaves alone resolves" true (resolves 0x3000L);
  mem.Arm.Memory.s2_inject <- (fun _ -> false);
  check Alcotest.bool "disarmed, the page walks again" true (resolves 0x2000L)

(* A plan's stage-2 faults belong to its machine: machine A's S2_fault
   event falls due inside its last hypercall, which walks no stage-2
   table, so the event is still pending when an unplanned machine B
   walks — and B's walk must not take it.  A's own next walk does. *)
let test_injection_stays_with_its_machine () =
  let config = Config.v Config.Hw_v8_3 in
  let a = Machine.create config Hyp.Host_hyp.Nested in
  Machine.boot a;
  let due = Machine.total_traps a + 5 in
  let plan =
    Plan.of_raw
      { Plan.raw_seed = 1; raw_rng = 0L; raw_events = [ (due, Plan.S2_fault, false) ];
        raw_injected = [] }
  in
  let a = Machine.create ~fault_plan:plan config Hyp.Host_hyp.Nested in
  Machine.boot a;
  check Alcotest.bool "A's event is ahead of its boot" true (Machine.total_traps a < due);
  Machine.hypercall a ~cpu:0;
  check Alcotest.bool "A's event is due" true (Machine.total_traps a >= due);
  check Alcotest.int "A's hypercall walked no table" 0 (List.length (Plan.injected plan));
  let walks m =
    let s2 =
      Mmu.Stage2.create m.Machine.mem (Mmu.Walk.allocator ~start:0x7_0000_0000L) ~vmid:9
    in
    Mmu.Stage2.map_page s2 ~ipa:0x4000L ~pa:0x7_1000_0000L ~perms:Mmu.Pte.rwx;
    match Mmu.Stage2.translate s2 ~ipa:0x4000L ~is_write:false with
    | Ok _ -> true
    | Error _ -> false
  in
  let b = Machine.create config Hyp.Host_hyp.Nested in
  check Alcotest.bool "B's walk resolves" true (walks b);
  check Alcotest.int "A's event did not fire on B" 0 (List.length (Plan.injected plan));
  check Alcotest.bool "A's own walk takes its event" false (walks a);
  check Alcotest.(list int) "A's event fired on A" [ due ] (List.map fst (Plan.injected plan))

(* --- the distributor's injection hook --- *)

let test_dist_drop () =
  let d = Gic.Dist.create ~ncpus:1 in
  Gic.Dist.enable d ~cpu:0 ~intid:40;
  Gic.Dist.set_inject d (Some (fun ~cpu:_ ~intid:_ -> Gic.Dist.Drop));
  Gic.Dist.raise_irq d ~cpu:0 ~intid:40;
  check Alcotest.bool "dropped interrupt never becomes pending" true
    (Gic.Dist.best_pending d ~cpu:0 = None);
  Gic.Dist.set_inject d None;
  Gic.Dist.raise_irq d ~cpu:0 ~intid:40;
  check Alcotest.bool "hook removed, delivery resumes" true
    (Gic.Dist.best_pending d ~cpu:0 = Some 40)

let test_dist_duplicate () =
  let d = Gic.Dist.create ~ncpus:1 in
  Gic.Dist.enable d ~cpu:0 ~intid:41;
  Gic.Dist.set_inject d (Some (fun ~cpu:_ ~intid:_ -> Gic.Dist.Duplicate));
  (* a duplicate on an inactive interrupt collapses into one pending copy,
     exactly as level-triggered hardware would *)
  Gic.Dist.raise_irq d ~cpu:0 ~intid:41;
  check Alcotest.bool "one copy pends" true
    (Gic.Dist.acknowledge d ~cpu:0 = Some 41);
  Gic.Dist.eoi d ~cpu:0 ~intid:41;
  check Alcotest.bool "no phantom third copy" true
    (Gic.Dist.acknowledge d ~cpu:0 = None);
  (* raised while the first instance is active, the duplicate survives as
     a pending copy across the EOI *)
  Gic.Dist.set_inject d None;
  Gic.Dist.raise_irq d ~cpu:0 ~intid:41;
  ignore (Gic.Dist.acknowledge d ~cpu:0);
  Gic.Dist.set_inject d (Some (fun ~cpu:_ ~intid:_ -> Gic.Dist.Duplicate));
  Gic.Dist.raise_irq d ~cpu:0 ~intid:41;
  Gic.Dist.eoi d ~cpu:0 ~intid:41;
  check Alcotest.bool "duplicate re-pends across the EOI" true
    (Gic.Dist.acknowledge d ~cpu:0 = Some 41)

(* the machine-level verdicts duplicate real deliveries, not just
   distributor state *)
let test_machine_irq_verdicts () =
  let m =
    Machine.create ~ncpus:1 (Config.v Config.Hw_v8_3) Hyp.Host_hyp.Single_vm
  in
  Machine.boot m;
  let drain () =
    let n = ref 0 in
    let continue = ref true in
    while !continue do
      match Machine.vm_ack m ~cpu:0 with
      | Some v ->
        incr n;
        ignore (Machine.vm_eoi m ~cpu:0 ~vintid:v)
      | None -> continue := false
    done;
    !n
  in
  m.Machine.irq_fault.(0) <- Some Plan.Drop_irq;
  Machine.device_irq m ~cpu:0 ~intid:Gic.Irq.virtio_net_spi;
  check Alcotest.int "dropped interrupt never reaches the VM" 0 (drain ());
  Machine.device_irq m ~cpu:0 ~intid:Gic.Irq.virtio_net_spi;
  check Alcotest.int "verdict was one-shot: next delivery lands" 1 (drain ())

(* --- the invariant checker flags planted inconsistencies --- *)

let test_invariants_clean_machine () =
  List.iter
    (fun mech ->
      let m = Machine.create ~ncpus:2 (Config.v mech) Hyp.Host_hyp.Nested in
      Machine.boot m;
      check Alcotest.int
        (Config.name (Config.v mech) ^ ": clean machine, no violations")
        0
        (List.length (Machine.check_invariants m)))
    [ Config.Hw_v8_3; Config.Hw_neve; Config.Pv_neve ]

let test_invariants_illegal_spsr () =
  let m = Machine.create (Config.v Config.Hw_v8_3) Hyp.Host_hyp.Nested in
  Machine.boot m;
  (* M[3:0] = 2 is not a legal AArch64 mode *)
  Cpu.poke_sysreg m.Machine.cpus.(0) Sysreg.SPSR_EL2 2L;
  let vs = Machine.check_invariants m in
  check Alcotest.bool "illegal SPSR mode flagged" true
    (List.exists (fun v -> v.Invariants.v_name = "spsr-mode-legal") vs)

let test_invariants_misaligned_elr () =
  let m = Machine.create (Config.v Config.Hw_v8_3) Hyp.Host_hyp.Nested in
  Machine.boot m;
  Cpu.poke_sysreg m.Machine.cpus.(0) Sysreg.ELR_EL1 0x1001L;
  let vs = Machine.check_invariants m in
  check Alcotest.bool "misaligned ELR flagged" true
    (List.exists (fun v -> v.Invariants.v_name = "elr-aligned") vs)

let test_invariants_monotone () =
  let cpu = Cpu.create () in
  let st = Invariants.state () in
  cpu.Cpu.meter.Cost.cycles <- 1000;
  check Alcotest.int "advancing counters pass" 0
    (List.length (Invariants.collect (fun s -> Invariants.check_monotone s st cpu)));
  cpu.Cpu.meter.Cost.cycles <- 500;
  let vs = Invariants.collect (fun s -> Invariants.check_monotone s st cpu) in
  check Alcotest.bool "regressing cycle counter flagged" true
    (List.exists (fun v -> v.Invariants.v_name = "counters-monotone") vs)

let test_check_sync () =
  let cpu = Cpu.create () in
  let vs =
    Invariants.check_sync ~name:"vncr-page-sync" cpu
      [ ("HCR_EL2", 5L, 5L); ("VTTBR_EL2", 1L, 2L) ]
  in
  check Alcotest.int "one violation per mismatching pair" 1 (List.length vs);
  let v = List.hd vs in
  check Alcotest.string "named after the sweep" "vncr-page-sync"
    v.Invariants.v_name;
  check Alcotest.bool "detail names the register" true
    (String.length v.Invariants.v_detail > 0
    && String.sub v.Invariants.v_detail 0 9 = "VTTBR_EL2")

(* --- the live checker: what the wrapper around every EL2 exception
   records --- *)

(* A booted checked 1-vCPU machine whose CPU runs [plant] just before
   the checked EL2 handler on each exception entry, until [plant]
   returns [true] (it planted its inconsistency); then one hypercall.
   Returns every recorded violation, rendered, and the count. *)
let live_violations config plant =
  let m = Machine.create ~check_invariants:true config Hyp.Host_hyp.Nested in
  Machine.boot m;
  let cpu = m.Machine.cpus.(0) in
  let checked = Option.get cpu.Cpu.el2_handler in
  let armed = ref true in
  cpu.Cpu.el2_handler <-
    Some
      (fun c e ->
        if !armed && plant m c then armed := false;
        checked c e);
  Machine.hypercall m ~cpu:0;
  check Alcotest.bool "the inconsistency was planted" false !armed;
  ( List.map Invariants.to_string (Machine.violations m),
    Machine.violation_count m )

let vel2_of (m : Machine.t) = m.Machine.hosts.(0).Hyp.Host_hyp.vcpu.Hyp.Vcpu.in_vel2

let live_scenarios =
  [
    ( "illegal SPSR_EL2 mode at entry",
      Config.v Config.Hw_v8_3,
      fun _ c ->
        (* M[3:0] = 2 is not a legal AArch64 mode; the host hands it to
           the guest hypervisor, whose SPSR_EL1 then holds it *)
        Cpu.poke_sysreg c Sysreg.SPSR_EL2 2L;
        true );
    ( "misaligned ELR_EL1",
      Config.v Config.Hw_v8_3,
      fun _ c ->
        Cpu.poke_sysreg c Sysreg.ELR_EL1 0x1001L;
        true );
    ( "misaligned ELR_EL1 with an illegal SPSR_EL1",
      Config.v Config.Hw_v8_3,
      fun _ c ->
        Cpu.poke_sysreg c Sysreg.ELR_EL1 0x1002L;
        Cpu.poke_sysreg c Sysreg.SPSR_EL1 0xbL;
        true );
    ( "regressed meter counter",
      Config.v Config.Hw_v8_3,
      fun _ c ->
        (* the next nested exception's check sees both go backwards *)
        let mt = c.Cpu.meter in
        mt.Cost.traps <- mt.Cost.traps - 3;
        mt.Cost.insns <- mt.Cost.insns - 10_000;
        true );
    ( "NEVE page slot out of sync",
      Config.v Config.Hw_neve,
      fun m _ ->
        vel2_of m
        && begin
          let h = m.Machine.hosts.(0) in
          Core.Deferred_page.write h.Hyp.Host_hyp.page Sysreg.CNTVOFF_EL2
            0x5eedL;
          true
        end );
    ( "VNCR_EL2 out of sync",
      Config.v ~guest_vhe:true Config.Hw_neve,
      fun m c ->
        vel2_of m
        && begin
          (* bit 1 is RES0: the page stays where it is *)
          Cpu.poke_sysreg c Sysreg.VNCR_EL2
            (Int64.logxor (Cpu.peek_sysreg c Sysreg.VNCR_EL2) 2L);
          true
        end );
  ]

(* What the checker records for each scenario, pinned: the count, how
   many were kept (at most 64), the first two rendered and the MD5 of
   all of them rendered, one per line. *)
let live_expected =
  [
    ( 63, 63,
      [ "spsr-mode-legal: cpu0 EL2 pc=0x90000004: SPSR_EL2 = 0x2 has illegal mode bits";
        "spsr-mode-legal: cpu0 EL1 pc=0x70000004: SPSR_EL1 = 0x2 has illegal mode bits" ],
      "4e603ecfe4e7fb97dab6ef5e99330e63" );
    ( 2, 2,
      [ "elr-aligned: cpu0 EL1 pc=0x90000004: ELR_EL1 = 0x1001 is not 4-byte aligned";
        "elr-aligned: cpu0 EL1 pc=0x90000004: ELR_EL1 = 0x1001 is not 4-byte aligned" ],
      "a005fbd92102b2a998412de03bc7cc78" );
    ( 4, 4,
      [ "elr-aligned: cpu0 EL1 pc=0x90000004: ELR_EL1 = 0x1002 is not 4-byte aligned";
        "spsr-mode-legal: cpu0 EL1 pc=0x90000004: SPSR_EL1 = 0xb has illegal mode bits" ],
      "bd77e321127bff35ffe09f8fbe84a8a1" );
    ( 65, 64,
      [ "counters-monotone: cpu0 EL1 pc=0x70000004: traps went backwards: 58 -> 57";
        "counters-monotone: cpu0 EL1 pc=0x70000004: insns went backwards: 8913 -> -818" ],
      "3fcf0f432683f49b97cbf79e4981328b" );
    ( 3, 3,
      [ "vncr-page-sync: cpu0 EL1 pc=0x70000100: CNTVOFF_EL2: expected 0x1000, found 0x5eed";
        "vncr-page-sync: cpu0 EL1 pc=0x700001e4: CNTVOFF_EL2: expected 0x1000, found 0x5eed" ],
      "a342e0f42f23e685eafc8783c737b259" );
    ( 11, 11,
      [ "vncr-page-sync: cpu0 EL1 pc=0x70000100: VNCR_EL2: expected 0x40008001, found 0x40008003";
        "vncr-page-sync: cpu0 EL1 pc=0x70000104: VNCR_EL2: expected 0x40008001, found 0x40008003" ],
      "70fee528cd34a7ae2bf4836d8328ebb0" );
  ]

let test_live_reporting () =
  List.iter2
    (fun (what, config, plant) (count, kept, head, md5) ->
      let vs, n = live_violations config plant in
      check Alcotest.int (what ^ ": violation_count") count n;
      check Alcotest.int (what ^ ": violations kept") kept (List.length vs);
      check Alcotest.(list string) (what ^ ": the first two") head
        (List.filteri (fun i _ -> i < 2) vs);
      check Alcotest.string (what ^ ": all of them, in order") md5
        (Digest.to_hex (Digest.string (String.concat "\n" vs))))
    live_scenarios live_expected

(* --- a trap syndrome naming no known register injects UNDEF --- *)

let test_unknown_sysreg_trap_injects_undef () =
  let enc = (3, 7, 15, 15, 7) in
  (* self-check: the encoding is unknown under all three lookup forms the
     host tries (direct, _EL12 alias, _EL02 alias) *)
  check Alcotest.bool "encoding unknown to the simulator" true
    (Sysreg.of_enc enc = None
    && Sysreg.of_enc (3, 0, 15, 15, 7) = None
    && Sysreg.of_enc (3, 3, 15, 15, 7) = None);
  let iss =
    (* direction=read, Rt=0, then CRm/CRn/Op1/Op2/Op0 per the ARM ARM *)
    1 lor (15 lsl 1) lor (15 lsl 10) lor (7 lsl 14) lor (7 lsl 17)
    lor (3 lsl 20)
  in
  let m = Machine.create (Config.v Config.Hw_v8_3) Hyp.Host_hyp.Nested in
  Machine.boot m;
  let cpu = m.Machine.cpus.(0) in
  check Alcotest.int "no UNDEFs yet" 0 (Machine.undef_injections m);
  Cpu.exception_entry cpu
    { Exn.target = Pstate.EL2; ec = Exn.EC_sysreg; iss };
  check Alcotest.int "exactly one UNDEF injected" 1
    (Machine.undef_injections m);
  check Alcotest.bool "guest resumed at EL1" true
    (cpu.Cpu.pstate.Pstate.el = Pstate.EL1);
  check Alcotest.bool "no leaked GPR snapshot" true (cpu.Cpu.depth = 0);
  check Alcotest.int "no invariant violations on the way" 0
    (Machine.violation_count m)

(* --- a GICH access with no frame mapping --- *)

let test_gich_unmapped () =
  let m =
    Machine.create (Config.v ~gicv2:true Config.Hw_v8_3) Hyp.Host_hyp.Nested
  in
  Machine.boot m;
  let ga =
    match m.Machine.ghyps.(0) with
    | Some g -> g.Hyp.Guest_hyp.ga
    | None -> Alcotest.fail "nested machine has no guest hypervisor"
  in
  (* only ICH_AP1R<0> has a GICv2 frame register; <1> is unmapped *)
  check Alcotest.bool "ICH_AP1R<1> has no GICH mapping" true
    (Gic.Gicv2.of_ich (Sysreg.ICH_AP1R_EL2 1) = None);
  (* deprivileged: guest input, UNDEF injected at EL1, no exception *)
  Hyp.Gaccess.gich_access ga (Sysreg.ICH_AP1R_EL2 1) ~is_write:false;
  check Alcotest.bool "still at EL1 after the injected UNDEF" true
    (ga.Hyp.Gaccess.cpu.Cpu.pstate.Pstate.el = Pstate.EL1);
  (* at EL2 the same access is the host's own bug: a typed Sim_fault *)
  let cpu = ga.Hyp.Gaccess.cpu in
  let saved = cpu.Cpu.pstate in
  cpu.Cpu.pstate <- Pstate.at Pstate.EL2;
  (try
     Hyp.Gaccess.gich_access ga (Sysreg.ICH_AP1R_EL2 1) ~is_write:true;
     cpu.Cpu.pstate <- saved;
     Alcotest.fail "EL2 access to an unmapped GICH register must abort"
   with Fault.Error.Sim_fault (Fault.Error.Not_gich_register _, _) ->
     cpu.Cpu.pstate <- saved)

(* --- tampered world-switch ops are visible, and check_sync sees them --- *)

let test_tampered_ops () =
  (* the guest hypervisor's access funnel at EL2, where every access
     executes: each register reads 7, and a corruption armed before each
     copy xors the value the save loop reads *)
  let cpu = Cpu.create () in
  let ga = Hyp.Gaccess.v cpu (Config.v Config.Hw_v8_3) ~page_base:0x8000L in
  let mask = 0xf0f0L in
  Array.iter
    (fun r ->
      Cpu.poke_sysreg cpu r 7L;
      ga.Hyp.Gaccess.tamper <- Some (Int64.logxor mask);
      WS.save_array (Hyp.Gaccess.ops ga) ~ctx:0x1000L
        ~via:(WS.via Sysreg.Direct) [| r |];
      check Alcotest.bool "the corruption is one-shot" true
        (Option.is_none ga.Hyp.Gaccess.tamper))
    Hyp.Reglists.el1_state_arr;
  (* every store landed xored *)
  let pairs =
    List.map
      (fun r ->
        ( Sysreg.name r,
          7L,
          Arm.Memory.read64 cpu.Cpu.mem
            (Int64.add 0x1000L (Int64.of_int (Hyp.Reglists.ctx_slot r))) ))
      Hyp.Reglists.el1_state
  in
  let vs = Invariants.check_sync ~name:"ctx-sync" cpu pairs in
  check Alcotest.int "every tampered slot detected"
    (List.length Hyp.Reglists.el1_state)
    (List.length vs);
  List.iter
    (fun (_, _, actual) ->
      check Alcotest.bool "stored value is the xored read" true
        (actual = Int64.logxor 7L mask))
    pairs

(* --- the acceptance sweep: every world-switch register, every scenario,
   trapped, with no anonymous escape --- *)

let nested_matrix =
  List.concat_map
    (fun mech ->
      List.map (fun vhe -> Config.v ~guest_vhe:vhe mech) [ false; true ])
    [ Config.Hw_v8_3; Config.Hw_neve; Config.Pv_v8_3; Config.Pv_neve ]

let test_reglists_sweep_nested () =
  List.iter
    (fun config ->
      let m = Machine.create config Hyp.Host_hyp.Nested in
      Machine.boot m;
      let ga =
        match m.Machine.ghyps.(0) with
        | Some g -> g.Hyp.Guest_hyp.ga
        | None -> Alcotest.fail "nested machine has no guest hypervisor"
      in
      Array.iter
        (fun access ->
          let label =
            Printf.sprintf "%s: %s" (Config.name config)
              (Sysreg.access_name access)
          in
          try
            let v = Hyp.Gaccess.rd ga access in
            Hyp.Gaccess.wr ga access v
          with e ->
            Alcotest.failf "%s escaped with %s" label (Printexc.to_string e))
        Hyp.Paravirt.forms;
      check Alcotest.bool
        (Config.name config ^ ": back at EL1 after the sweep") true
        (m.Machine.cpus.(0).Cpu.pstate.Pstate.el = Pstate.EL1))
    nested_matrix

let test_reglists_sweep_single_vm () =
  List.iter
    (fun mech ->
      let config = Config.v mech in
      let m = Machine.create config Hyp.Host_hyp.Single_vm in
      Machine.boot m;
      let cpu = m.Machine.cpus.(0) in
      Array.iter
        (fun access ->
          let label =
            Printf.sprintf "vm %s: %s" (Config.name config)
              (Sysreg.access_name access)
          in
          try
            Cpu.exec cpu (Insn.Mrs (10, access));
            Cpu.exec cpu (Insn.Msr (access, Insn.Reg 10))
          with e ->
            Alcotest.failf "%s escaped with %s" label (Printexc.to_string e))
        Hyp.Paravirt.forms)
    [ Config.Hw_v8_3; Config.Hw_neve ]

(* --- hvc operands are guest input: any 16-bit value is safe --- *)

let test_decode_op_total =
  QCheck.Test.make ~count:5000 ~name:"paravirt: decode_op total over 16 bits"
    QCheck.(int_bound 0xffff)
    (fun op ->
      match Hyp.Paravirt.decode_op op with
      | Hyp.Paravirt.Op_hypercall n -> op < 64 && n = op
      | Hyp.Paravirt.Op_sysreg _ | Hyp.Paravirt.Op_eret
      | Hyp.Paravirt.Op_invalid _ ->
        op >= 64)

let test_encode_decode_roundtrip =
  let gen =
    QCheck.Gen.(
      let* access = oneofl (Array.to_list Hyp.Paravirt.forms) in
      let* rt = int_bound 30 in
      let* is_read = bool in
      return (access, rt, is_read))
  in
  QCheck.Test.make ~count:2000
    ~name:"paravirt: encode/decode sysreg operands round-trip"
    (QCheck.make
       ~print:(fun (a, rt, r) ->
         Printf.sprintf "%s rt=%d read=%b" (Sysreg.access_name a) rt r)
       gen)
    (fun (access, rt, is_read) ->
      match
        Hyp.Paravirt.decode_op
          (Hyp.Paravirt.encode_sysreg_op ~access ~rt ~is_read)
      with
      | Hyp.Paravirt.Op_sysreg { access = a; rt = r; is_read = ir } ->
        a = access && r = rt && ir = is_read
      | _ -> false)

let hvc_fuzz_config mech name =
  QCheck.Test.make ~count:25
    ~name:(Printf.sprintf "hvc fuzz: any operand is safe (%s)" name)
    QCheck.(int_bound 0xffff)
    (fun op ->
      let m = Machine.create (Config.v mech) Hyp.Host_hyp.Nested in
      Machine.boot m;
      let ga =
        match m.Machine.ghyps.(0) with
        | Some g -> g.Hyp.Guest_hyp.ga
        | None -> QCheck.Test.fail_report "no guest hypervisor"
      in
      (try Hyp.Gaccess.hvc ga op
       with Fault.Error.Sim_fault _ ->
         QCheck.Test.fail_reportf "hvc #%d aborted as a simulator bug" op);
      true)

let test_hvc_fuzz_pv = hvc_fuzz_config Config.Pv_neve "NEVE paravirt"
let test_hvc_fuzz_hw = hvc_fuzz_config Config.Hw_v8_3 "ARMv8.3 hw"

(* --- the checker's trap trail is the tracer's newest traps --- *)

(* Op [i] of a cycle through the three guest operations that trap: a
   hypercall, an MMIO store and an IPI from one vCPU to the other. *)
let trail_op m i =
  let cpu = i / 3 mod 2 in
  match i mod 3 with
  | 0 -> Machine.hypercall m ~cpu
  | 1 -> Machine.mmio_access m ~cpu ~addr:0x0a00_0000L ~is_write:true
  | _ -> (
    let target = 1 - cpu in
    Machine.send_ipi m ~cpu ~target ~intid:5;
    match Machine.vm_ack m ~cpu:target with
    | Some v -> ignore (Machine.vm_eoi m ~cpu:target ~vintid:v : bool)
    | None -> ())

let rec take n = function
  | x :: tl when n > 0 -> x :: take (n - 1) tl
  | _ -> []

(* A traced, checked 2-vCPU machine: at every EL2 exception entry, after
   boot and after every op, each CPU's [Sim_fault] trail is that CPU's
   newest [trail_depth] [Trap] events, newest first, rendered the way
   the trail renders them.  (Every op ends with the same world-switch
   traps; at an exception entry the newest is the trap being taken, an
   MMIO abort or an interrupt as well as an instruction.) *)
let test_trail_is_tracer_tail () =
  let depth = Cpu.trail_depth in
  List.iter
    (fun config ->
      let name = Config.name config in
      let m =
        Machine.create ~check_invariants:true ~ncpus:2 config
          Hyp.Host_hyp.Nested
      in
      let newest = Array.make 2 [] and filled = ref false and entries = ref 0 in
      let compare what =
        check Alcotest.int (what ^ ": no event dropped") 0 (Trace.dropped ());
        List.iter
          (fun v ->
            if v.Trace.v_kind = Trace.Trap then
              newest.(v.Trace.v_tid) <-
                take depth
                  ((v.Trace.v_cls ^ " " ^ v.Trace.v_detail)
                  :: newest.(v.Trace.v_tid)))
          (Trace.events ());
        Trace.reset ();
        Array.iteri
          (fun cpu c ->
            let trail = (Fault.Error.context_of_cpu ~id:cpu c).Fault.Error.fc_trail in
            check
              Alcotest.(list string)
              (Printf.sprintf "%s: cpu%d trail" what cpu)
              newest.(cpu) trail;
            if List.length trail = depth then filled := true)
          m.Machine.cpus
      in
      Array.iter
        (fun c ->
          Option.iter
            (fun inner ->
              c.Cpu.el2_handler <-
                Some
                  (fun c e ->
                    incr entries;
                    compare (Printf.sprintf "%s entry %d" name !entries);
                    inner c e))
            c.Cpu.el2_handler)
        m.Machine.cpus;
      Trace.enable ~capacity:65536 ();
      Fun.protect ~finally:Trace.disable (fun () ->
          Machine.boot m;
          compare (name ^ " boot");
          for i = 0 to 199 do
            trail_op m i;
            compare (Printf.sprintf "%s op %d" name i)
          done);
      check Alcotest.bool (name ^ ": a trail filled") true !filled)
    [ Config.v Config.Hw_v8_3; Config.v ~guest_vhe:true Config.Hw_neve ]

(* A checked machine's mark holds each CPU's trail: traps taken after
   the mark are gone from it after the rewind.  (Every op ends with the
   same world-switch traps, so a marker trap tells the trails apart.) *)
let test_trail_rewinds () =
  let m =
    Machine.create ~check_invariants:true ~ncpus:2 (Config.v Config.Hw_v8_3)
      Hyp.Host_hyp.Nested
  in
  Machine.boot m;
  let trails () =
    Array.to_list
      (Array.mapi
         (fun id c -> (Fault.Error.context_of_cpu ~id c).Fault.Error.fc_trail)
         m.Machine.cpus)
  in
  let marked = trails () and mark = Machine.mark m in
  for i = 0 to 5 do
    trail_op m i
  done;
  Array.iter
    (fun c -> Cpu.record_trap c ~detail:"marker" Cost.Trap_mmio)
    m.Machine.cpus;
  check Alcotest.bool "the marker moved the trails" true (trails () <> marked);
  Machine.rewind m mark;
  check Alcotest.(list (list string)) "the rewound trails" marked (trails ())

(* [neve_sim traps] lists every trap of one nested hypercall, byte for
   byte as the goldens hold it: Table 7's 121 on ARMv8.3 and 13 with
   NEVE, 57 and 13 under a VHE guest hypervisor, and the same four under
   a paravirtualized guest hypervisor (the funnel's patched
   instructions). *)
let test_traps_listings () =
  List.iter
    (fun (args, golden) ->
      let rc, out = Test_supervise.run_cli ("traps " ^ args) in
      check Alcotest.int ("traps " ^ args ^ ": exit status") 0 rc;
      check Alcotest.string ("traps " ^ args)
        (Test_supervise.read_file
           (Test_supervise.locate [ "golden/" ^ golden; "test/golden/" ^ golden ]))
        out)
    [ ("", "traps-v83.txt"); ("-m neve", "traps-neve.txt");
      ("--vhe", "traps-v83-vhe.txt"); ("-m neve --vhe", "traps-neve-vhe.txt");
      ("-m v8.3-pv", "traps-v83-pv.txt"); ("-m neve-pv", "traps-neve-pv.txt");
      ("-m v8.3-pv --vhe", "traps-v83-pv-vhe.txt");
      ("-m neve-pv --vhe", "traps-neve-pv-vhe.txt") ]

(* Two checked-machine reports, byte for byte as the goldens hold them:
   the chaos sweep at seed 42 and the serving campaign's JSON.  The
   checker's results (violation counts included) and the fault plans'
   schedules must not move across commits. *)
let test_checked_goldens () =
  List.iter
    (fun (args, golden) ->
      let rc, out = Test_supervise.run_cli args in
      check Alcotest.int (args ^ ": exit status") 0 rc;
      check Alcotest.string args
        (Test_supervise.read_file
           (Test_supervise.locate [ "golden/" ^ golden; "test/golden/" ^ golden ]))
        out)
    [ ("chaos --seed 42 --traps 10000", "chaos-seed42.txt");
      ("serve -n 30 --json", "serve-n30.json") ]

(* --- chaos: same seed, same report, and no anonymous crashes --- *)

let test_chaos_reproducible () =
  let seed = 7 in
  let render () =
    Fmt.str "%a" Workloads.Chaos.pp_report
      (Workloads.Chaos.run ~seed ~faults:8 ~traps:1500 ())
  in
  let a = render () and b = render () in
  check Alcotest.string
    (Printf.sprintf "two runs render byte-identically (seed=%d)" seed)
    a b;
  check Alcotest.bool
    (Printf.sprintf "the sweep never crashed anonymously (seed=%d)" seed)
    true
    (Workloads.Chaos.crashes
       (Workloads.Chaos.run ~seed ~faults:8 ~traps:1500 ())
    = [])

let suite =
  [
    Alcotest.test_case "plan: deterministic one-shot schedule" `Quick
      test_plan_deterministic;
    Alcotest.test_case "plan: kind-filtered polling" `Quick
      test_plan_kind_filter;
    Alcotest.test_case "plan: corrupt always changes the value" `Quick
      test_corrupt_changes_value;
    Alcotest.test_case "walk: injection hook fails the walk" `Quick
      test_walk_inject;
    Alcotest.test_case "dist: injected drop loses the interrupt" `Quick
      test_dist_drop;
    Alcotest.test_case "dist: injected duplicate semantics" `Quick
      test_dist_duplicate;
    Alcotest.test_case "machine: drop verdict is one-shot" `Quick
      test_machine_irq_verdicts;
    Alcotest.test_case "invariants: clean machines have none" `Quick
      test_invariants_clean_machine;
    Alcotest.test_case "invariants: illegal SPSR mode flagged" `Quick
      test_invariants_illegal_spsr;
    Alcotest.test_case "invariants: misaligned ELR flagged" `Quick
      test_invariants_misaligned_elr;
    Alcotest.test_case "invariants: counter regression flagged" `Quick
      test_invariants_monotone;
    Alcotest.test_case "invariants: sync sweep reports mismatches" `Quick
      test_check_sync;
    Alcotest.test_case "invariants: the live checker's reports are pinned"
      `Quick test_live_reporting;
    Alcotest.test_case "host: unknown sysreg syndrome injects UNDEF" `Quick
      test_unknown_sysreg_trap_injects_undef;
    Alcotest.test_case "gaccess: unmapped GICH register" `Quick
      test_gich_unmapped;
    Alcotest.test_case "world-switch: tampered ops detected by sync check"
      `Quick test_tampered_ops;
    Alcotest.test_case "sweep: all forms trapped on all nested configs"
      `Quick test_reglists_sweep_nested;
    Alcotest.test_case "sweep: all forms executed in a plain VM" `Quick
      test_reglists_sweep_single_vm;
    Alcotest.test_case "trail: checked logs stay bounded, same trail"
      `Quick test_trail_is_tracer_tail;
    Alcotest.test_case "trail: a rewind puts the trail back" `Quick
      test_trail_rewinds;
    Alcotest.test_case "traps: full listings match the goldens" `Quick
      test_traps_listings;
    Alcotest.test_case "chaos and serve reports match the goldens" `Quick
      test_checked_goldens;
    qtest test_decode_op_total;
    qtest test_encode_decode_roundtrip;
    qtest test_hvc_fuzz_pv;
    qtest test_hvc_fuzz_hw;
    Alcotest.test_case "chaos: reproducible, no anonymous crashes" `Slow
      test_chaos_reproducible;
    Alcotest.test_case "walk: a plan's faults stay with its machine" `Quick
      test_injection_stays_with_its_machine;
  ]
