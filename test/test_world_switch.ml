(* Tests for the world-switch code: record the exact access sequences and
   verify the structural properties that drive the paper's trap counts —
   which access forms a VHE vs non-VHE hypervisor uses, which registers
   are touched per phase, and that save/restore round-trips state. *)

module Sysreg = Arm.Sysreg
module WS = Hyp.World_switch
module Reglists = Hyp.Reglists

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
let save_vm_el1 ops ~vhe =
  WS.save_array ops ~ctx ~via:(WS.vm_el1_access ~vhe) Reglists.el1_state_arr

let restore_vm_el1 ops ~vhe =
  WS.restore_array ops ~ctx ~via:(WS.vm_el1_access ~vhe)
    Reglists.el1_state_arr

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

let test_vm_timer_access_forms () =
  let ops, events, _ = recorder () in
  WS.save_vm_timer ops ~vhe:true ~ctx;
  List.iter
    (fun (a : Sysreg.access) ->
      check Alcotest.bool
        (Sysreg.access_name a ^ " uses the EL02 form")
        true
        (a.Sysreg.alias = Sysreg.EL02))
    (reads events);
  let ops, events, _ = recorder () in
  WS.save_vm_timer ops ~vhe:false ~ctx;
  List.iter
    (fun (a : Sysreg.access) ->
      check Alcotest.bool (Sysreg.access_name a ^ " is direct") true
        (a.Sysreg.alias = Sysreg.Direct))
    (reads events)

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

let test_vgic_used_lrs () =
  let count used_lrs =
    let ops, events, _ = recorder () in
    WS.save_vgic ops ~ctx ~used_lrs;
    List.length
      (List.filter
         (fun (a : Sysreg.access) ->
           match a.Sysreg.reg with Sysreg.ICH_LR_EL2 _ -> true | _ -> false)
         (reads events))
  in
  check Alcotest.int "no LR reads when none in use" 0 (count 0);
  check Alcotest.int "three LR reads for three in use" 3 (count 3)

let test_vgic_disabled_on_exit () =
  let ops, events, regs = recorder () in
  Hashtbl.replace regs (Sysreg.direct Sysreg.ICH_HCR_EL2) Gic.Vgic.ich_hcr_en;
  WS.save_vgic ops ~ctx ~used_lrs:0;
  check Alcotest.bool "interface disabled" true
    (List.mem (Sysreg.direct Sysreg.ICH_HCR_EL2) (writes events));
  check Alcotest.int64 "written as zero" 0L
    (Hashtbl.find regs (Sysreg.direct Sysreg.ICH_HCR_EL2))

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
  ]
