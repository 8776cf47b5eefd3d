(* Tests for the world-switch code: record the exact access sequences and
   verify the structural properties that drive the paper's trap counts —
   which access forms a VHE vs non-VHE hypervisor uses, which registers
   are touched per phase, and that save/restore round-trips state.  The
   vGIC and VM-timer phases are checked on a booted machine's guest
   hypervisor, where they run. *)

module Sysreg = Arm.Sysreg
module WS = Hyp.World_switch
module Reglists = Hyp.Reglists
module Config = Hyp.Config
module Machine = Hyp.Machine

let check = Alcotest.check

(* A recording ops implementation: stores to a table, logs every access. *)
type event =
  | Rd of Sysreg.access
  | Wr of Sysreg.access
  | Ld of int64
  | St of int64

let recorder () =
  let events = ref [] in
  let regs : (Sysreg.access, int64) Hashtbl.t = Hashtbl.create 64 in
  let mem : (int64, int64) Hashtbl.t = Hashtbl.create 64 in
  let ops =
    {
      WS.rd =
        (fun a ->
          events := Rd a :: !events;
          Option.value ~default:0L (Hashtbl.find_opt regs a));
      wr =
        (fun a v ->
          events := Wr a :: !events;
          Hashtbl.replace regs a v);
      ld =
        (fun addr ->
          events := Ld addr :: !events;
          Option.value ~default:0L (Hashtbl.find_opt mem addr));
      st =
        (fun addr v ->
          events := St addr :: !events;
          Hashtbl.replace mem addr v);
    }
  in
  (ops, events, regs)

let reads events =
  List.filter_map (function Rd a -> Some a | _ -> None) (List.rev !events)

let writes events =
  List.filter_map (function Wr a -> Some a | _ -> None) (List.rev !events)

let ctx = 0x1000L

(* The contexts a world switch moves, through the reference loops over
   the precomputed register arrays: the VM's EL1 state in the alias form
   of the design, the other sets directly. *)
let vm_el1 ~vhe = WS.via (if vhe then Sysreg.EL12 else Sysreg.Direct)

let save_vm_el1 ops ~vhe =
  WS.save_array ops ~ctx ~via:(vm_el1 ~vhe) Reglists.el1_state_arr

let restore_vm_el1 ops ~vhe =
  WS.restore_array ops ~ctx ~via:(vm_el1 ~vhe) Reglists.el1_state_arr

let save_direct ops regs = WS.save_array ops ~ctx ~via:Sysreg.direct regs
let restore_direct ops regs = WS.restore_array ops ~ctx ~via:Sysreg.direct regs

(* --- access forms: the crux of VHE vs non-VHE trap behaviour --- *)

let test_nonvhe_saves_direct () =
  let ops, events, _ = recorder () in
  save_vm_el1 ops ~vhe:false;
  let rs = reads events in
  check Alcotest.int "one read per EL1 context register"
    (List.length Reglists.el1_state) (List.length rs);
  List.iter
    (fun (a : Sysreg.access) ->
      check Alcotest.bool
        (Sysreg.access_name a ^ " is a direct access")
        true
        (a.Sysreg.alias = Sysreg.Direct))
    rs

let test_vhe_saves_el12 () =
  let ops, events, _ = recorder () in
  save_vm_el1 ops ~vhe:true;
  let rs = reads events in
  let el12 =
    List.filter (fun (a : Sysreg.access) -> a.Sysreg.alias = Sysreg.EL12) rs
  in
  check Alcotest.int "16 registers use the _EL12 form"
    (List.length Reglists.el12_capable)
    (List.length el12);
  (* and the rest are plain accesses to registers without an _EL12 form *)
  List.iter
    (fun (a : Sysreg.access) ->
      if a.Sysreg.alias = Sysreg.Direct then
        check Alcotest.bool
          (Sysreg.access_name a ^ " has no _EL12 form")
          false
          (List.mem a.Sysreg.reg Reglists.el12_capable))
    rs

(* --- on a machine: every vGIC and timer access a v8.3 guest hypervisor
   makes through an EL2-only form traps, so the trap listing of a nested
   exit is its access sequence --- *)

let booted ?(gicv2 = false) ?(vhe = false) () =
  let m =
    Machine.create (Config.v ~gicv2 ~guest_vhe:vhe Config.Hw_v8_3)
      Hyp.Host_hyp.Nested
  in
  Machine.boot m;
  m

let ghyp (m : Machine.t) =
  match m.Machine.ghyps.(0) with
  | Some g -> g
  | None -> Alcotest.fail "nested machine without a guest hypervisor"

(* The trapped instructions (or GICH frame registers) of one warm nested
   hypercall, in order. *)
let hypercall_traps m =
  Machine.hypercall m ~cpu:0;
  Trace.enable ~capacity:65536 ();
  Fun.protect ~finally:Trace.disable (fun () -> Machine.hypercall m ~cpu:0);
  List.filter_map
    (fun (v : Trace.view) ->
      if v.Trace.v_kind = Trace.Trap && v.Trace.v_tid = 0 then
        Some v.Trace.v_detail
      else None)
    (Trace.events ())

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_vm_timer_access_forms () =
  (* the copier's loop aliases: only [_EL02] reaches the VM timer's
     EL02 form; the CNTV registers have no [_EL12] form *)
  List.iter
    (fun (alias, want) ->
      let ops, events, _ = recorder () in
      WS.save_array ops ~ctx ~via:(WS.via alias) Reglists.timer_el0_state_arr;
      List.iter
        (fun (a : Sysreg.access) ->
          check Alcotest.bool
            (Sysreg.access_name a ^ " has the loop's form")
            true (a.Sysreg.alias = want))
        (reads events))
    [ (Sysreg.Direct, Sysreg.Direct); (Sysreg.EL12, Sysreg.Direct);
      (Sysreg.EL02, Sysreg.EL02) ];
  (* a VHE guest hypervisor reaches the VM timer through the _EL02
     forms, which always trap: saved and masked on exit, restored on
     entry *)
  let timer d = contains d "CNTV_" in
  check
    Alcotest.(list string)
    "VHE: the VM timer through _EL02"
    [ "mrs x10, CNTV_CTL_EL02"; "mrs x10, CNTV_CVAL_EL02";
      "msr CNTV_CTL_EL02, x10"; "msr CNTV_CTL_EL02, x10";
      "msr CNTV_CVAL_EL02, x10" ]
    (List.filter timer (hypercall_traps (booted ~vhe:true ())));
  (* a non-VHE one reaches it directly, from virtual EL1: no trap *)
  check
    Alcotest.(list string)
    "non-VHE: the VM timer directly" []
    (List.filter timer (hypercall_traps (booted ())))

let test_vhe_trap_controls_use_el1_forms () =
  let ops, events, _ = recorder () in
  WS.activate_traps ops ~vhe:true ~hcr:0x80000000L;
  let ws = writes events in
  (* the CPTR write goes through the redirected CPACR_EL1 form *)
  check Alcotest.bool "CPACR form used" true
    (List.mem (Sysreg.direct Sysreg.CPACR_EL1) ws);
  check Alcotest.bool "no direct CPTR write" false
    (List.mem (Sysreg.direct Sysreg.CPTR_EL2) ws);
  (* HCR/MDCR have no EL1 forms: direct either way *)
  check Alcotest.bool "HCR direct" true
    (List.mem (Sysreg.direct Sysreg.HCR_EL2) ws)

let test_own_el2_access_mapping () =
  check Alcotest.string "VHE reaches ELR_EL2 via ELR_EL1" "ELR_EL1"
    (Sysreg.access_name (WS.own_el2_access ~vhe:true Sysreg.ELR_EL2));
  check Alcotest.string "non-VHE uses the EL2 register" "ELR_EL2"
    (Sysreg.access_name (WS.own_el2_access ~vhe:false Sysreg.ELR_EL2));
  check Alcotest.string "no EL1 form: direct even for VHE" "VTTBR_EL2"
    (Sysreg.access_name (WS.own_el2_access ~vhe:true Sysreg.VTTBR_EL2))

(* --- vGIC: only in-use list registers are touched --- *)

(* The list registers named by the trapped accesses, in order: GICv3's
   system-register accesses and GICv2's GICH frame accesses alike. *)
let lr_accesses ~gicv2 used_lrs =
  let m = booted ~gicv2 () in
  (ghyp m).Hyp.Guest_hyp.used_lrs <- used_lrs;
  List.filter (fun d -> contains d "ICH_LR") (hypercall_traps m)

let test_vgic_used_lrs () =
  List.iter
    (fun gicv2 ->
      let what = if gicv2 then "GICv2" else "GICv3" in
      check Alcotest.(list string) (what ^ ": no LR access when none in use")
        [] (lr_accesses ~gicv2 0);
      let name n = Sysreg.name (Sysreg.ICH_LR_EL2 n) in
      let lrs f = List.map f [ 0; 1; 2 ] in
      check Alcotest.(list string)
        (what ^ ": three in use, read on exit and written on entry")
        (if gicv2 then lrs name @ lrs name
         else
           lrs (fun n -> "mrs x10, " ^ name n)
           @ lrs (fun n -> "msr " ^ name n ^ ", x10"))
        (lr_accesses ~gicv2 3))
    [ false; true ]

(* The interface is disabled while the guest hypervisor's host handles
   the exit (its device model runs there), and enabled again on entry. *)
let test_vgic_disabled_on_exit () =
  List.iter
    (fun gicv2 ->
      let what = if gicv2 then "GICv2" else "GICv3" in
      let m = booted ~gicv2 () in
      let vcpu = m.Machine.hosts.(0).Hyp.Host_hyp.vcpu in
      let ich_hcr () = Hyp.Vcpu.read_vel2 vcpu Sysreg.ICH_HCR_EL2 in
      let seen = ref None in
      (ghyp m).Hyp.Guest_hyp.on_mmio <-
        Some (fun ~addr:_ ~is_write:_ -> seen := Some (ich_hcr ()));
      Machine.mmio_access m ~cpu:0 ~addr:Workloads.Micro.virtio_mmio_base
        ~is_write:true;
      check Alcotest.(option int64) (what ^ ": disabled while handling")
        (Some 0L) !seen;
      check Alcotest.int64 (what ^ ": enabled on entry") Gic.Vgic.ich_hcr_en
        (ich_hcr ()))
    [ false; true ]

(* --- the register-copy counter --- *)

(* GICv2's vGIC switch moves the registers GICv3's copies, through the
   GICH frame instead of system registers, and counts them alike. *)
let test_gicv2_copies_counted () =
  let delta ~gicv2 used_lrs =
    let m = booted ~gicv2 () in
    (ghyp m).Hyp.Guest_hyp.used_lrs <- used_lrs;
    Machine.hypercall m ~cpu:0;
    let c0 = WS.reg_copies () in
    Machine.hypercall m ~cpu:0;
    WS.reg_copies () - c0
  in
  List.iter
    (fun n ->
      check Alcotest.int
        (Printf.sprintf "hypercall copies, %d LRs in use: GICv2 = GICv3" n)
        (delta ~gicv2:false n) (delta ~gicv2:true n))
    [ 0; 3 ]

(* The copy counter is per domain, and the host reads it only around its
   own exit-path loops: with a second machine's operations interleaved
   on the same domain, every traced world switch of either machine
   reports exactly those loops' copies, the EL1 + EL0 context saved and
   the host's EL1 context restored on entry, the EL1 + EL0 context
   restored on exit. *)
let test_ws_deltas_are_per_switch () =
  let el1 = Array.length Reglists.el1_state_arr
  and el0 = Array.length Reglists.el0_state_arr in
  let configs =
    List.concat_map
      (fun mech ->
        [ Config.v mech; Config.v ~guest_vhe:true mech ])
      Config.[ Hw_v8_3; Hw_neve; Pv_v8_3; Pv_neve ]
  in
  List.iteri
    (fun i config ->
      let other = List.nth configs ((i + 1) mod List.length configs) in
      let machine c =
        Workloads.Scenario.make_arm (Workloads.Scenario.Arm_nested c)
      in
      let a = machine config and b = machine other in
      let ops m =
        List.map (Workloads.Micro.arm_op m)
          Workloads.Micro.[ Hypercall; Device_io; Virtual_ipi ]
      in
      let ops_a = ops a and ops_b = ops b in
      Trace.enable ~capacity:(1 lsl 17) ();
      Fun.protect ~finally:Trace.disable (fun () ->
          for _ = 1 to 2 do
            List.iter2
              (fun op_a op_b ->
                op_a ();
                op_b ())
              ops_a ops_b
          done;
          let what = Config.name config ^ " beside " ^ Config.name other in
          check Alcotest.int (what ^ ": nothing dropped") 0 (Trace.dropped ());
          let deltas kind =
            List.filter_map
              (fun (v : Trace.view) ->
                if v.Trace.v_kind = kind then Some (Int64.to_int v.Trace.v_a0)
                else None)
              (Trace.events ())
          in
          let enters = deltas Trace.Ws_enter and exits = deltas Trace.Ws_exit in
          check Alcotest.bool (what ^ ": switches traced") true (enters <> []);
          List.iter
            (fun (kind, ds, want) ->
              check Alcotest.(list int) (what ^ ": " ^ kind)
                (List.map (fun _ -> want) ds) ds)
            [ ("Ws_enter copies", enters, el1 + el0 + el1);
              ("Ws_exit copies", exits, el1 + el0) ]))
    configs

(* --- save/restore round-trips state through the context area --- *)

let test_save_restore_roundtrip () =
  let ops, _, regs = recorder () in
  (* give every EL1 context register a distinct value *)
  List.iteri
    (fun i r ->
      Hashtbl.replace regs (Sysreg.direct r) (Int64.of_int (0x100 + i)))
    Reglists.el1_state;
  save_vm_el1 ops ~vhe:false;
  (* wipe the registers, then restore *)
  List.iter
    (fun r -> Hashtbl.replace regs (Sysreg.direct r) 0L)
    Reglists.el1_state;
  restore_vm_el1 ops ~vhe:false;
  List.iteri
    (fun i r ->
      check Alcotest.int64 (Sysreg.name r ^ " restored")
        (Int64.of_int (0x100 + i))
        (Hashtbl.find regs (Sysreg.direct r)))
    Reglists.el1_state

let test_context_slots_disjoint () =
  (* saving two different register sets into the same context area must
     not alias *)
  let ops, _, regs = recorder () in
  List.iter
    (fun r -> Hashtbl.replace regs (Sysreg.direct r) 0xAAL)
    Reglists.el1_state;
  List.iter
    (fun r -> Hashtbl.replace regs (Sysreg.direct r) 0xBBL)
    Reglists.el0_state;
  save_vm_el1 ops ~vhe:false;
  save_direct ops Reglists.el0_state_arr;
  List.iter
    (fun r -> Hashtbl.replace regs (Sysreg.direct r) 0L)
    (Reglists.el1_state @ Reglists.el0_state);
  restore_vm_el1 ops ~vhe:false;
  restore_direct ops Reglists.el0_state_arr;
  check Alcotest.int64 "el1 value intact" 0xAAL
    (Hashtbl.find regs (Sysreg.direct Sysreg.SCTLR_EL1));
  check Alcotest.int64 "el0 value intact" 0xBBL
    (Hashtbl.find regs (Sysreg.direct Sysreg.TPIDR_EL0))

(* --- debug/PMU phases --- *)

let test_debug_state_size () =
  let ops, events, _ = recorder () in
  save_direct ops Reglists.debug_state_arr;
  check Alcotest.int "4 registers per breakpoint/watchpoint pair"
    (4 * Sysreg.debug_bkpts)
    (List.length (reads events))

let test_pmu_mostly_el0 () =
  let ops, events, _ = recorder () in
  save_direct ops Reglists.pmu_state_arr;
  let el1_accesses =
    List.filter
      (fun (a : Sysreg.access) -> Sysreg.min_el a.Sysreg.reg = Arm.Pstate.EL1)
      (reads events)
  in
  (* only PMINTENSET_EL1 needs EL1 privilege — the rest never traps *)
  check Alcotest.int "one privileged PMU register" 1 (List.length el1_accesses)

let suite =
  [
    ("non-VHE saves the VM with direct accesses", `Quick, test_nonvhe_saves_direct);
    ("VHE saves the VM with _EL12 accesses", `Quick, test_vhe_saves_el12);
    ("VM timer access forms per design", `Quick, test_vm_timer_access_forms);
    ("VHE trap controls use EL1 forms", `Quick,
     test_vhe_trap_controls_use_el1_forms);
    ("own-EL2-state access mapping", `Quick, test_own_el2_access_mapping);
    ("vGIC touches only in-use LRs", `Quick, test_vgic_used_lrs);
    ("vGIC disabled on exit", `Quick, test_vgic_disabled_on_exit);
    ("save/restore round-trips state", `Quick, test_save_restore_roundtrip);
    ("context slots are disjoint", `Quick, test_context_slots_disjoint);
    ("debug context size", `Quick, test_debug_state_size);
    ("PMU context is mostly unprivileged", `Quick, test_pmu_mostly_el0);
    ("GICv2 vGIC copies are counted like GICv3's", `Quick,
     test_gicv2_copies_counted);
    ("traced switch copy deltas ignore other machines", `Quick,
     test_ws_deltas_are_per_switch);
  ]
