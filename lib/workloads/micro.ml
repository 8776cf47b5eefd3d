(* The kvm-unit-test microbenchmarks (Section 5, Tables 1, 6, 7):
   Hypercall, Device I/O, Virtual IPI, Virtual EOI — each run end to end
   through a full simulated stack. *)

module Machine = Hyp.Machine
module Cpu = Arm.Cpu
module Sysreg = Arm.Sysreg

type benchmark = Hypercall | Device_io | Virtual_ipi | Virtual_eoi

let all = [ Hypercall; Device_io; Virtual_ipi; Virtual_eoi ]

let name = function
  | Hypercall -> "Hypercall"
  | Device_io -> "Device I/O"
  | Virtual_ipi -> "Virtual IPI"
  | Virtual_eoi -> "Virtual EOI"

type result = {
  bench : benchmark;
  column : string;
  cycles : float;  (* mean cycles per operation *)
  traps : float;   (* mean traps to the host hypervisor per operation *)
}

let virtio_mmio_base = 0x0a00_0000L

(* One iteration of each benchmark on an ARM machine. *)
let arm_op m = function
  | Hypercall -> fun () -> Machine.hypercall m ~cpu:0
  | Device_io ->
    fun () -> Machine.mmio_access m ~cpu:0 ~addr:virtio_mmio_base ~is_write:true
  | Virtual_ipi ->
    fun () ->
      (* vCPU 0 sends SGI 5 to vCPU 1; vCPU 1 takes the interrupt,
         acknowledges and completes it *)
      Machine.send_ipi m ~cpu:0 ~target:1 ~intid:5;
      (match Machine.vm_ack m ~cpu:1 with
       | Some v -> ignore (Machine.vm_eoi m ~cpu:1 ~vintid:v)
       | None -> ())
  | Virtual_eoi ->
    (* a virtual interrupt is already active (set up by the harness);
       completing it never traps *)
    let lr =
      Gic.Vgic.encode_lr
        { Gic.Vgic.empty_lr with Gic.Vgic.lr_state = Gic.Irq.Active;
                                 lr_vintid = 7 }
    in
    fun () ->
      Cpu.poke_sysreg m.Machine.cpus.(0) (Sysreg.ICH_LR_EL2 0) lr;
      ignore (Machine.vm_eoi m ~cpu:0 ~vintid:7)

(* The trap kinds that count as "traps to the hypervisor" for Table 7. *)
let arm_trap_count (d : Cost.delta) = d.Cost.d_traps

let measure_arm ?(iters = 16) (col : Scenario.arm_column) bench =
  let m = Scenario.make_arm col in
  let op = arm_op m bench in
  (* warm up once: first runs touch launch paths *)
  op ();
  let snaps = Machine.snapshot m in
  for _ = 1 to iters do
    op ()
  done;
  let d = Machine.delta_since m snaps in
  {
    bench;
    column = Scenario.column_name (Scenario.Arm col);
    cycles = float_of_int d.Cost.d_cycles /. float_of_int iters;
    traps = float_of_int (arm_trap_count d) /. float_of_int iters;
  }

let x86_op ~vm ~receiver = function
  | Hypercall -> fun () -> X86.Turtles.hypercall vm
  | Device_io -> fun () -> X86.Turtles.device_io vm
  | Virtual_ipi -> fun () -> X86.Turtles.send_ipi ~sender:vm ~receiver
  | Virtual_eoi -> fun () -> X86.Turtles.eoi vm

let measure_x86 ?(iters = 16) (col : Scenario.x86_column) bench =
  let vm = Scenario.make_x86 col in
  let receiver = Scenario.make_x86 col in
  let op = x86_op ~vm ~receiver bench in
  op ();
  let s1 = Cost.snapshot vm.X86.Turtles.vtx.X86.Vtx.meter in
  let s2 = Cost.snapshot receiver.X86.Turtles.vtx.X86.Vtx.meter in
  for _ = 1 to iters do
    op ()
  done;
  let d1 = Cost.delta_since vm.X86.Turtles.vtx.X86.Vtx.meter s1 in
  let d2 = Cost.delta_since receiver.X86.Turtles.vtx.X86.Vtx.meter s2 in
  {
    bench;
    column = Scenario.column_name (Scenario.X86 col);
    cycles = float_of_int (d1.Cost.d_cycles + d2.Cost.d_cycles) /. float_of_int iters;
    traps =
      float_of_int (d1.Cost.d_traps + d2.Cost.d_traps) /. float_of_int iters;
  }

(* --- the tables --- *)

type table_row = {
  row_bench : benchmark;
  cells : (string * result) list;  (* column label -> result *)
}

let arm_columns_table1 =
  [
    ("VM", Scenario.Arm_vm);
    ("Nested VM", Scenario.Arm_nested (Hyp.Config.v Hyp.Config.Hw_v8_3));
    ( "Nested VM VHE",
      Scenario.Arm_nested (Hyp.Config.v ~guest_vhe:true Hyp.Config.Hw_v8_3) );
  ]

let arm_columns_neve =
  [
    ("NEVE Nested VM", Scenario.Arm_nested (Hyp.Config.v Hyp.Config.Hw_neve));
    ( "NEVE Nested VM VHE",
      Scenario.Arm_nested (Hyp.Config.v ~guest_vhe:true Hyp.Config.Hw_neve) );
  ]

let x86_columns = [ ("x86 VM", Scenario.X86_vm); ("x86 Nested VM", Scenario.X86_nested) ]

let run_table ~arm_cols ~x86_cols ?iters () =
  List.map
    (fun bench ->
      let arm_cells =
        List.map
          (fun (label, col) -> (label, measure_arm ?iters col bench))
          arm_cols
      in
      let x86_cells =
        List.map
          (fun (label, col) -> (label, measure_x86 ?iters col bench))
          x86_cols
      in
      { row_bench = bench; cells = arm_cells @ x86_cells })
    all

(* Table 1: VM and nested VM on ARMv8.3 (non-VHE and VHE) and x86. *)
let table1 ?iters () =
  run_table ~arm_cols:arm_columns_table1 ~x86_cols:x86_columns ?iters ()

(* Table 6: adds the NEVE columns. *)
let table6 ?iters () =
  run_table
    ~arm_cols:(arm_columns_table1 @ arm_columns_neve)
    ~x86_cols:x86_columns ?iters ()

(* Table 7 uses the trap counts of the same measurements. *)
let table7 = table6
