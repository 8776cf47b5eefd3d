(* Trap analysis: where does exit multiplication come from, and which trap
   class does each NEVE mechanism eliminate?

   For each microbenchmark and each nested configuration, runs the
   operation once warm and prints its traps broken down by class —
   the quantitative version of Section 6's design discussion:
   VM-register accesses vanish into the deferred access page, hypervisor
   control registers get redirected, and only eret, timers, IPIs and GIC
   writes keep trapping.

   Run with: dune exec examples/trap_analysis.exe *)

module Machine = Hyp.Machine
module Micro = Workloads.Micro

let configs =
  [ ("ARMv8.3", Hyp.Config.v Hyp.Config.Hw_v8_3);
    ("ARMv8.3 VHE", Hyp.Config.v ~guest_vhe:true Hyp.Config.Hw_v8_3);
    ("NEVE", Hyp.Config.v Hyp.Config.Hw_neve);
    ("NEVE VHE", Hyp.Config.v ~guest_vhe:true Hyp.Config.Hw_neve) ]

let breakdown config bench =
  let m =
    Workloads.Scenario.make_arm ~ncpus:2
      (Workloads.Scenario.Arm_nested config)
  in
  let op = Micro.arm_op m bench in
  op ();
  let snaps = Machine.snapshot m in
  op ();
  Machine.delta_since m snaps

let () =
  List.iter
    (fun bench ->
      Fmt.pr "@.=== %s ===@." (Micro.name bench);
      Fmt.pr "%-14s" "trap class";
      List.iter (fun (l, _) -> Fmt.pr " %12s" l) configs;
      Fmt.pr "@.";
      let deltas = List.map (fun (_, c) -> breakdown c bench) configs in
      List.iter
        (fun kind ->
          let counts =
            List.map
              (fun (d : Cost.delta) ->
                Option.value ~default:0 (List.assoc_opt kind d.Cost.d_by_kind))
              deltas
          in
          if List.exists (fun n -> n > 0) counts then begin
            Fmt.pr "%-14s" (Cost.trap_kind_name kind);
            List.iter (fun n -> Fmt.pr " %12d" n) counts;
            Fmt.pr "@."
          end)
        Cost.all_trap_kinds;
      Fmt.pr "%-14s" "TOTAL";
      List.iter (fun (d : Cost.delta) -> Fmt.pr " %12d" d.Cost.d_traps) deltas;
      Fmt.pr "@.")
    [ Micro.Hypercall; Micro.Device_io; Micro.Virtual_ipi ];
  Fmt.pr
    "@.Reading: NEVE eliminates the sysreg-el1/el2/el12 and GIC-read classes@.\
     (deferred access page + register redirection); eret, IPIs, timers and@.\
     GIC writes still trap, as Tables 4/5 specify.@."
