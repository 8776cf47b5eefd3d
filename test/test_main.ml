let () =
  Alcotest.run "neve"
    [
      ("arm", Test_arm.suite);
      ("trap-rules", Test_trap_rules.suite);
      ("cpu", Test_cpu.suite);
      ("interp", Test_interp.suite);
      ("mmu", Test_mmu.suite);
      ("gic+timer", Test_gic.suite);
      ("core (NEVE)", Test_core.suite);
      ("world-switch", Test_world_switch.suite);
      ("host-internals", Test_host.suite);
      ("hypervisor", Test_hyp.suite);
      ("x86", Test_x86.suite);
      ("riscv", Test_riscv.suite);
      ("workloads", Test_workloads.suite);
      ("fault", Test_fault.suite);
      ("properties", Test_properties.suite);
      ("fuzz", Test_fuzz.suite);
      ("trace", Test_trace.suite);
      ("snap", Test_snap.suite);
      ("supervision", Test_supervise.suite);
      ("fleet", Test_fleet.suite);
      ("domain-safety", Test_domain_safety.suite);
      ("shootdown", Test_shootdown.suite);
      ("trap-path", Test_trap_path.suite);
    ]
