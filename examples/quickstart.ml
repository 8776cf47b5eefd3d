(* Quickstart: build a nested-virtualization stack, run one hypercall from
   the nested VM, and watch the exit-multiplication problem — then turn on
   NEVE and watch it disappear.

   Run with: dune exec examples/quickstart.exe *)

let run_one label config =
  (* Assemble a machine: host hypervisor (L0) at EL2, guest hypervisor
     (L1, a KVM/ARM model) deprivileged in virtual EL2, and a nested VM
     (L2).  [boot] launches the whole stack through the real trap paths. *)
  let machine =
    Hyp.Machine.create ~ncpus:1 config Hyp.Host_hyp.Nested
  in
  Hyp.Machine.boot machine;

  (* Warm up once, then measure a single hypercall from the nested VM. *)
  Hyp.Machine.hypercall machine ~cpu:0;
  let meter = machine.Hyp.Machine.cpus.(0).Arm.Cpu.meter in
  let before = Cost.snapshot meter in
  Hyp.Machine.hypercall machine ~cpu:0;
  let d = Cost.delta_since meter before in

  Fmt.pr "@.=== %s ===@." label;
  Fmt.pr "one nested hypercall: %d cycles, %d traps to the host hypervisor@."
    d.Cost.d_cycles d.Cost.d_traps;
  Fmt.pr "trap breakdown:@.";
  List.iter
    (fun (kind, n) ->
      if n > 0 then Fmt.pr "  %-14s %d@." (Cost.trap_kind_name kind) n)
    d.Cost.d_by_kind;
  d

let () =
  Fmt.pr "NEVE quickstart: the exit-multiplication problem@.";
  Fmt.pr "------------------------------------------------@.";
  let v83 = run_one "ARMv8.3 nested virtualization" (Hyp.Config.v Hyp.Config.Hw_v8_3) in
  let neve = run_one "NEVE (ARMv8.4 NV2)" (Hyp.Config.v Hyp.Config.Hw_neve) in
  Fmt.pr "@.NEVE reduces traps %.1fx (%d -> %d) and cycles %.1fx (%d -> %d)@."
    (float_of_int v83.Cost.d_traps /. float_of_int neve.Cost.d_traps)
    v83.Cost.d_traps neve.Cost.d_traps
    (float_of_int v83.Cost.d_cycles /. float_of_int neve.Cost.d_cycles)
    v83.Cost.d_cycles neve.Cost.d_cycles;
  Fmt.pr "(the paper reports 126 -> 15 traps and a ~5x cycle reduction)@."
