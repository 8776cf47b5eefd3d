(* Tests for the x86 VT-x baseline: VMCS semantics, shadowing, and the
   Turtles nested flows. *)

module Vmcs = X86.Vmcs
module Vtx = X86.Vtx
module Turtles = X86.Turtles

let check = Alcotest.check

let test_vmcs_read_write () =
  let v = Vmcs.create () in
  Vmcs.write v Vmcs.Guest_rip 0x1000L;
  check Alcotest.int64 "write/read" 0x1000L (Vmcs.read v Vmcs.Guest_rip);
  check Alcotest.int64 "unwritten fields read zero" 0L (Vmcs.read v Vmcs.Guest_rsp)

let test_vmcs_copy_all () =
  let a = Vmcs.create () and b = Vmcs.create () in
  List.iteri (fun i f -> Vmcs.write a f (Int64.of_int i)) Vmcs.all_fields;
  Vmcs.copy_all ~src:a ~dst:b;
  List.iter
    (fun f ->
      check Alcotest.int64 (Vmcs.field_name f) (Vmcs.read a f) (Vmcs.read b f))
    Vmcs.all_fields

let test_unshadowed_fields () =
  check Alcotest.bool "link pointer unshadowed" false
    (Vmcs.shadowable Vmcs.Vmcs_link_pointer);
  check Alcotest.bool "guest rip shadowed" true (Vmcs.shadowable Vmcs.Guest_rip)

let test_transitions_cost_coalesced () =
  (* one exit + one entry: the CISC "coalesced save/restore" — a couple of
     fixed hardware costs, not per-register traps *)
  let vtx = Vtx.create () in
  Vtx.vmptrld vtx (Vmcs.create ());
  vtx.Vtx.exit_handler <- Some (fun v _ -> Vtx.vm_enter v);
  Vtx.vm_enter vtx;
  let c0 = vtx.Vtx.meter.Cost.cycles in
  Vtx.vm_exit vtx Vtx.Exit_vmcall;
  let cost = vtx.Vtx.meter.Cost.cycles - c0 in
  check Alcotest.bool "round trip under 2000 cycles" true (cost < 2000);
  check Alcotest.int "exactly one exit recorded" 1
    (Cost.traps_of_kind vtx.Vtx.meter Cost.Trap_x86_vmexit)

let test_shadowing_elides_exits () =
  let vtx = Vtx.create () in
  let vmcs = Vmcs.create () in
  Vtx.vmptrld vtx vmcs;
  vtx.Vtx.exit_handler <- Some (fun v _ -> Vtx.vm_enter v);
  Vtx.vm_enter vtx;
  vtx.Vtx.shadowing <- true;
  let e0 = vtx.Vtx.exits in
  ignore (Vtx.vmread_l1 vtx vmcs Vmcs.Guest_rip);
  Vtx.vmwrite_l1 vtx vmcs Vmcs.Guest_rip 5L;
  check Alcotest.int "shadowed accesses do not exit" e0 vtx.Vtx.exits;
  vtx.Vtx.shadowing <- false;
  ignore (Vtx.vmread_l1 vtx vmcs Vmcs.Guest_rip);
  check Alcotest.int "unshadowed read exits" (e0 + 1) vtx.Vtx.exits

let exits_of t op =
  op ();
  (* warm up *)
  let before = t.Turtles.vtx.Vtx.exits in
  op ();
  t.Turtles.vtx.Vtx.exits - before

let test_vm_hypercall_one_exit () =
  let t = Turtles.create ~nested:false () in
  check Alcotest.int "plain VM hypercall: one exit" 1
    (exits_of t (fun () -> Turtles.hypercall t))

let test_nested_hypercall_five_exits () =
  (* paper Table 7: 5 exits per nested hypercall on x86 *)
  let t = Turtles.create ~nested:true () in
  check Alcotest.int "nested hypercall: five exits" 5
    (exits_of t (fun () -> Turtles.hypercall t))

let test_hypercall_counts_insns () =
  (* the bench trajectory reports sim_insns per config; x86 configs were
     reporting 0 because VMCS accesses charged cycles without retiring
     instructions *)
  let t = Turtles.create ~nested:true () in
  Turtles.hypercall t;
  let s = Cost.snapshot t.Turtles.vtx.Vtx.meter in
  Turtles.hypercall t;
  let d = Cost.delta_since t.Turtles.vtx.Vtx.meter s in
  check Alcotest.bool
    (Fmt.str "nested hypercall retires instructions (%d)" d.Cost.d_insns)
    true (d.Cost.d_insns > 0)

let test_nested_cheaper_than_arm_v83 () =
  (* the paper's central comparison: x86 nested virtualization is an order
     of magnitude cheaper than ARMv8.3 in cycles *)
  let t = Turtles.create ~nested:true () in
  Turtles.hypercall t;
  let s = Cost.snapshot t.Turtles.vtx.Vtx.meter in
  Turtles.hypercall t;
  let x86 = (Cost.delta_since t.Turtles.vtx.Vtx.meter s).Cost.d_cycles in
  let m =
    Hyp.Machine.create (Hyp.Config.v Hyp.Config.Hw_v8_3) Hyp.Host_hyp.Nested
  in
  Hyp.Machine.boot m;
  Hyp.Machine.hypercall m ~cpu:0;
  let s = Hyp.Machine.snapshot m in
  Hyp.Machine.hypercall m ~cpu:0;
  let arm = (Hyp.Machine.delta_since m s).Cost.d_cycles in
  check Alcotest.bool
    (Fmt.str "x86 (%d) is ~10x cheaper than ARMv8.3 (%d)" x86 arm)
    true
    (arm > 8 * x86)

let test_eoi_no_exit () =
  let t = Turtles.create ~nested:true () in
  let before = t.Turtles.vtx.Vtx.exits in
  Turtles.eoi t;
  check Alcotest.int "APICv EOI exits" before t.Turtles.vtx.Vtx.exits;
  (* and costs the paper's 316 cycles *)
  let c0 = t.Turtles.vtx.Vtx.meter.Cost.cycles in
  Turtles.eoi t;
  check Alcotest.int "EOI cycle cost" 316 (t.Turtles.vtx.Vtx.meter.Cost.cycles - c0)

let test_ipi_exits () =
  let sender = Turtles.create ~nested:true () in
  let receiver = Turtles.create ~nested:true () in
  Turtles.send_ipi ~sender ~receiver;
  let b1 = sender.Turtles.vtx.Vtx.exits and b2 = receiver.Turtles.vtx.Vtx.exits in
  Turtles.send_ipi ~sender ~receiver;
  let exits = sender.Turtles.vtx.Vtx.exits - b1 + receiver.Turtles.vtx.Vtx.exits - b2 in
  (* paper Table 7: 9 exits; the model lands within 1-2 *)
  check Alcotest.bool (Fmt.str "nested IPI ~9 exits (got %d)" exits) true
    (exits >= 7 && exits <= 11)

let test_merge_copies_guest_state () =
  let t = Turtles.create ~nested:true () in
  Vmcs.write t.Turtles.vmcs12 Vmcs.Guest_cr3 0xabcdL;
  Turtles.hypercall t;
  (* the vmresume path merged vmcs12 into vmcs02 *)
  check Alcotest.int64 "vmcs02 carries L1's guest state" 0xabcdL
    (Vmcs.read t.Turtles.vmcs02 Vmcs.Guest_cr3)

let test_vmptrld_requires_root () =
  let vtx = Vtx.create () in
  Vtx.vmptrld vtx (Vmcs.create ());
  vtx.Vtx.exit_handler <- Some (fun v _ -> Vtx.vm_enter v);
  Vtx.vm_enter vtx;
  match Vtx.vmptrld vtx (Vmcs.create ()) with
  | _ -> Alcotest.fail "vmptrld in non-root mode should be rejected"
  | exception Invalid_argument _ -> ()

let suite =
  [
    ("vmcs: field storage", `Quick, test_vmcs_read_write);
    ("vmcs: copy_all", `Quick, test_vmcs_copy_all);
    ("vmcs: shadow bitmap", `Quick, test_unshadowed_fields);
    ("vtx: transitions are coalesced", `Quick, test_transitions_cost_coalesced);
    ("vtx: shadowing elides exits", `Quick, test_shadowing_elides_exits);
    ("turtles: VM hypercall = 1 exit", `Quick, test_vm_hypercall_one_exit);
    ("turtles: nested hypercall = 5 exits", `Quick,
     test_nested_hypercall_five_exits);
    ("turtles: x86 nested ~10x cheaper than ARMv8.3", `Quick,
     test_nested_cheaper_than_arm_v83);
    ("turtles: hypercall retires instructions", `Quick,
     test_hypercall_counts_insns);
    ("turtles: APICv EOI never exits, costs 316", `Quick, test_eoi_no_exit);
    ("turtles: nested IPI ~9 exits", `Quick, test_ipi_exits);
    ("turtles: vmresume merges vmcs12 -> vmcs02", `Quick,
     test_merge_copies_guest_state);
    ("vtx: vmptrld requires root mode", `Quick, test_vmptrld_requires_root);
  ]
