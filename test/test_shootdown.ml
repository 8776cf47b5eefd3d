(* Cross-vCPU TLB shootdown, stage-2 break-before-make, and the serving
   scenarios built on them:

   - the shootdown protocol object itself: fresh/stale classification,
     the break window's architectural grace period, and the checker's
     violation counters for every way of getting break-before-make
     wrong;
   - the regression this PR fixes: a remap that invalidates only the
     invoking vCPU's TLB leaves every other vCPU serving the old frame
     (observed pre-fix, impossible post-fix);
   - SGI fan-out through the distributor's banked records, and the
     faithful ICC_SGI1R_EL1 trap syndrome;
   - percentile math on known distributions;
   - byte-determinism of the serve aggregate across shard counts, and
     the SMP fuzz campaign's empty-findings baseline. *)

module Machine = Hyp.Machine
module Config = Hyp.Config
module Shootdown = Mmu.Shootdown
module Sysreg = Arm.Sysreg
module Exn = Arm.Exn

let check = Alcotest.check

let nested ?(vhe = false) ?(ncpus = 2) mech =
  let m =
    Machine.create ~ncpus (Config.v ~guest_vhe:vhe mech) Hyp.Host_hyp.Nested
  in
  Machine.boot m;
  m

let ipa = 0x4000_0000L
let pa0 = 0x8000_0000L
let pa1 = 0x8000_1000L

(* --- the protocol object --- *)

let standalone () =
  Shootdown.create (Arm.Memory.create ()) ~ncpus:2 ~vmid:0x200
    ~tlb_capacity:64

let meter () = Cost.make_meter ()

let test_fresh_reads () =
  let s = standalone () in
  let m = meter () in
  Shootdown.map s ~ipa ~pa:pa0;
  (match Shootdown.read s ~cpu:0 ~meter:m ~ipa with
   | Shootdown.Fresh pa -> check Alcotest.int64 "walk returns the frame" pa0 pa
   | _ -> Alcotest.fail "expected a fresh serve");
  (match Shootdown.read s ~cpu:0 ~meter:m ~ipa with
   | Shootdown.Fresh _ -> ()
   | _ -> Alcotest.fail "expected a fresh TLB hit");
  let st = Shootdown.stats s in
  check Alcotest.int "one hit" 1 st.Shootdown.s_tlb_hits;
  check Alcotest.int "one miss" 1 st.Shootdown.s_tlb_misses;
  check Alcotest.bool "clean" true (Shootdown.clean st)

let test_bbm_correct_sequence_is_clean () =
  let s = standalone () in
  let m = meter () in
  Shootdown.map s ~ipa ~pa:pa0;
  ignore (Shootdown.read s ~cpu:0 ~meter:m ~ipa);
  ignore (Shootdown.read s ~cpu:1 ~meter:m ~ipa);
  Shootdown.break s ~ipa;
  Shootdown.invalidate_cpu s ~cpu:0 (Shootdown.By_page ipa);
  Shootdown.invalidate_cpu s ~cpu:1 (Shootdown.By_page ipa);
  Shootdown.dsb_complete s;
  Shootdown.make s ~ipa ~pa:pa1;
  (match Shootdown.read s ~cpu:1 ~meter:m ~ipa with
   | Shootdown.Fresh pa -> check Alcotest.int64 "new frame" pa1 pa
   | _ -> Alcotest.fail "expected the new frame");
  check Alcotest.bool "clean" true (Shootdown.clean (Shootdown.stats s))

let test_bbm_window_reads_are_permitted () =
  let s = standalone () in
  let m = meter () in
  Shootdown.map s ~ipa ~pa:pa0;
  ignore (Shootdown.read s ~cpu:1 ~meter:m ~ipa);  (* cpu1 caches old pa *)
  Shootdown.break s ~ipa;
  (* inside the window: cpu1's cached copy is architecturally usable *)
  (match Shootdown.read s ~cpu:1 ~meter:m ~ipa with
   | Shootdown.Stale_in_window pa -> check Alcotest.int64 "old frame" pa0 pa
   | _ -> Alcotest.fail "expected a permitted in-window stale serve");
  check Alcotest.bool "no violation inside the window" true
    (Shootdown.clean (Shootdown.stats s))

let test_stale_after_completion_is_flagged () =
  let s = standalone () in
  let m = meter () in
  Shootdown.map s ~ipa ~pa:pa0;
  ignore (Shootdown.read s ~cpu:1 ~meter:m ~ipa);
  Shootdown.break s ~ipa;
  Shootdown.invalidate_cpu s ~cpu:0 (Shootdown.By_page ipa);
  (* cpu1 never processes the invalidation — a lost broadcast *)
  Shootdown.dsb_complete s;
  (match Shootdown.read s ~cpu:1 ~meter:m ~ipa with
   | Shootdown.Stale pa -> check Alcotest.int64 "old frame" pa0 pa
   | _ -> Alcotest.fail "expected a flagged stale serve");
  let st = Shootdown.stats s in
  check Alcotest.int "served from a broken entry after completion" 1
    st.Shootdown.s_broken_serves;
  check Alcotest.bool "not clean" false (Shootdown.clean st)

let test_make_without_break_is_flagged () =
  let s = standalone () in
  Shootdown.map s ~ipa ~pa:pa0;
  Shootdown.make s ~ipa ~pa:pa1;
  check Alcotest.int "bbm violation" 1
    (Shootdown.stats s).Shootdown.s_bbm_violations

let test_make_before_completion_is_flagged () =
  let s = standalone () in
  Shootdown.map s ~ipa ~pa:pa0;
  Shootdown.break s ~ipa;
  (* no TLBI broadcast, no DSB *)
  Shootdown.make s ~ipa ~pa:pa1;
  check Alcotest.int "bbm violation" 1
    (Shootdown.stats s).Shootdown.s_bbm_violations

(* --- the regression this PR fixes --- *)

let test_local_only_remap_leaves_remote_stale () =
  (* pre-fix behavior: remap on vCPU 0 invalidates only vCPU 0's TLB, so
     vCPU 1 keeps reading the old frame — and the checker sees it.  The
     pre-fix path is rebuilt here from the protocol's public steps: break,
     a local-only TLBI on vCPU 0, then make — no broadcast, no DSB *)
  let m = nested Config.Hw_v8_3 in
  Machine.smp_map m ~cpu:0 ~ipa ~pa:pa0;
  (match Machine.smp_read m ~cpu:1 ~ipa with
   | Shootdown.Fresh pa -> check Alcotest.int64 "vCPU 1 caches pa0" pa0 pa
   | _ -> Alcotest.fail "expected fresh");
  let s = Machine.smp m in
  Shootdown.break s ~ipa;
  Shootdown.invalidate_cpu s ~cpu:0 (Shootdown.By_page ipa);
  Shootdown.make s ~ipa ~pa:pa1;
  (match Machine.smp_read m ~cpu:0 ~ipa with
   | Shootdown.Fresh pa -> check Alcotest.int64 "invoker sees pa1" pa1 pa
   | _ -> Alcotest.fail "invoker should see the new frame");
  (match Machine.smp_read m ~cpu:1 ~ipa with
   | Shootdown.Stale pa ->
     check Alcotest.int64 "vCPU 1 observes the STALE frame" pa0 pa
   | _ -> Alcotest.fail "pre-fix path must leave vCPU 1 stale");
  match Machine.shootdown_stats m with
  | Some st ->
    check Alcotest.bool "checker counted the stale serve" true
      (st.Shootdown.s_stale_serves > 0)
  | None -> Alcotest.fail "no shootdown state"

let test_bbm_remap_is_stale_proof () =
  (* post-fix: the same race through the broadcast protocol — vCPU 1 can
     only see the new frame, and the checker stays clean *)
  let m = nested Config.Hw_v8_3 in
  Machine.smp_map m ~cpu:0 ~ipa ~pa:pa0;
  ignore (Machine.smp_read m ~cpu:1 ~ipa);
  Machine.smp_remap m ~cpu:0 ~ipa ~pa:pa1;
  (match Machine.smp_read m ~cpu:1 ~ipa with
   | Shootdown.Fresh pa -> check Alcotest.int64 "vCPU 1 sees pa1" pa1 pa
   | _ -> Alcotest.fail "broadcast remap must leave no stale entry");
  match Machine.shootdown_stats m with
  | Some st ->
    check Alcotest.bool "clean" true (Shootdown.clean st);
    check Alcotest.int "one completed shootdown" 1 st.Shootdown.s_shootdowns;
    check Alcotest.int "one remote recipient" 1 st.Shootdown.s_recipients
  | None -> Alcotest.fail "no shootdown state"

let test_shootdown_charges_recipient () =
  let m = nested Config.Hw_neve in
  Machine.smp_map m ~cpu:0 ~ipa ~pa:pa0;
  ignore (Machine.smp_read m ~cpu:1 ~ipa);
  let before = m.Machine.cpus.(1).Arm.Cpu.meter.Cost.cycles in
  Machine.smp_remap m ~cpu:0 ~ipa ~pa:pa1;
  let spent = m.Machine.cpus.(1).Arm.Cpu.meter.Cost.cycles - before in
  check Alcotest.bool
    (Fmt.str "recipient pays at least tlbi_recipient (spent %d)" spent)
    true
    (spent >= Cost.default.Cost.tlbi_recipient)

let test_shootdown_reaches_shadow () =
  (* a TLBI-by-IPA broadcast must drop shadow stage-2 entries collapsing
     that page, and only that page *)
  let m = nested Config.Hw_v8_3 in
  let mem = m.Machine.mem in
  let galloc = Mmu.Walk.allocator ~start:0x6_0000_0000L in
  let halloc = Mmu.Walk.allocator ~start:0x7_0000_0000L in
  let guest_s2 = Mmu.Stage2.create mem galloc ~vmid:2 in
  let host_s2 = Mmu.Stage2.create mem halloc ~vmid:1 in
  let perms = { Mmu.Pte.readable = true; writable = true; executable = false } in
  Mmu.Stage2.map_page guest_s2 ~ipa ~pa:0x5555_0000L ~perms;
  Mmu.Stage2.map_page host_s2 ~ipa:0x5555_0000L ~pa:pa0 ~perms;
  Mmu.Stage2.map_page guest_s2 ~ipa:0x4000_1000L ~pa:0x5555_1000L ~perms;
  Mmu.Stage2.map_page host_s2 ~ipa:0x5555_1000L ~pa:pa1 ~perms;
  let sh = Machine.install_shadow m ~cpu:0 ~guest_s2 ~host_s2 in
  (match Mmu.Shadow.handle_fault sh ~guest_s2 ~host_s2 ~l2_ipa:ipa ~is_write:false with
   | Mmu.Shadow.Resolved _ -> ()
   | _ -> Alcotest.fail "shadow refill failed");
  (match Mmu.Shadow.handle_fault sh ~guest_s2 ~host_s2 ~l2_ipa:0x4000_1000L
           ~is_write:false with
   | Mmu.Shadow.Resolved _ -> ()
   | _ -> Alcotest.fail "shadow refill failed");
  check Alcotest.int "two shadowed pages" 2 (Mmu.Shadow.shadowed_pages sh);
  Machine.tlbi_bcast m ~cpu:0 (Shootdown.By_page ipa);
  check Alcotest.int "broadcast dropped exactly the matching entry" 1
    (Mmu.Shadow.shadowed_pages sh);
  Machine.tlbi_bcast m ~cpu:0 Shootdown.By_vmid;
  check Alcotest.int "vmid scope drops the rest" 0
    (Mmu.Shadow.shadowed_pages sh)

(* --- SGI fan-out through the distributor --- *)

let test_dist_sgi_fanout_banked () =
  let d = Gic.Dist.create ~ncpus:4 in
  for cpu = 0 to 3 do
    Gic.Dist.enable d ~cpu ~intid:14
  done;
  (* cpu 0 fans an SGI out to every other cpu *)
  for dst = 1 to 3 do
    Gic.Dist.send_sgi d ~src:0 ~dst ~intid:14
  done;
  check Alcotest.bool "sender has nothing pending" true
    (Gic.Dist.best_pending d ~cpu:0 = None);
  for cpu = 1 to 3 do
    check Alcotest.bool
      (Fmt.str "cpu %d has exactly the SGI pending" cpu)
      true
      (Gic.Dist.best_pending d ~cpu = Some 14
      && Gic.Dist.state d ~cpu ~intid:14 = Gic.Irq.Pending);
    check Alcotest.bool "acknowledge returns it" true
      (Gic.Dist.acknowledge d ~cpu = Some 14);
    check Alcotest.bool "active after ack" true
      (Gic.Dist.state d ~cpu ~intid:14 = Gic.Irq.Active);
    Gic.Dist.eoi d ~cpu ~intid:14;
    check Alcotest.bool "inactive after EOI" true
      (Gic.Dist.state d ~cpu ~intid:14 = Gic.Irq.Inactive);
    check Alcotest.bool "nothing left pending" true
      (Gic.Dist.best_pending d ~cpu = None)
  done

let test_machine_ipi_goes_through_dist () =
  (* after the rewiring, a machine IPI leaves the distributor's banked
     record cycled back to Inactive (pend -> ack -> eoi), and the
     interrupt still arrives at the vCPU *)
  let m = nested Config.Hw_v8_3 in
  Machine.send_ipi m ~cpu:0 ~target:1 ~intid:5;
  check Alcotest.bool "banked record cycled back to inactive" true
    (Gic.Dist.state m.Machine.dist ~cpu:1 ~intid:5 = Gic.Irq.Inactive);
  check Alcotest.bool "the vCPU still gets the interrupt" true
    (Machine.vm_ack m ~cpu:1 = Some 5)

(* --- the ICC_SGI1R_EL1 trap syndrome --- *)

let test_exit_sgi_esr_iss () =
  (* the virtual EL2 syndrome for a nested VM's IPI must be a faithful
     trapped-MSR ISS naming ICC_SGI1R_EL1, not an all-zero placeholder.
     Disabling the SGI at the distributor stops the receive-side flow,
     and a VHE guest hypervisor has no kernel-to-lowvisor hypercall on
     resume, so the sender's vEL2 ESR still holds the Exit_sgi syndrome
     when we look (later injections would overwrite it). *)
  let m = nested ~vhe:true Config.Hw_v8_3 in
  Gic.Dist.disable m.Machine.dist ~cpu:1 ~intid:5;
  Machine.send_ipi m ~cpu:0 ~target:1 ~intid:5;
  check Alcotest.bool "delivery was gated at the distributor" true
    (Machine.vm_ack m ~cpu:1 = None);
  let esr =
    Hyp.Vcpu.read_vel2 m.Machine.hosts.(0).Hyp.Host_hyp.vcpu Sysreg.ESR_EL2
  in
  (match Exn.esr_ec esr with
   | Some Exn.EC_sysreg -> ()
   | _ -> Alcotest.fail "expected EC_sysreg");
  let iss = Exn.esr_iss esr in
  check Alcotest.bool "ISS is not the zero placeholder" true (iss <> 0);
  let rt = (iss lsr 5) land 0x1f in
  check Alcotest.int "ISS encodes the trapped ICC_SGI1R_EL1 write"
    (Exn.sysreg_iss ~access:(Sysreg.direct Sysreg.ICC_SGI1R_EL1) ~rt
       ~is_read:false)
    iss

(* --- percentile math --- *)

let test_percentiles_known_distributions () =
  let xs = List.init 100 (fun i -> 100 - i) in  (* 1..100, descending *)
  check Alcotest.int "p50 of 1..100" 50 (Cost.Stats.p50 xs);
  check Alcotest.int "p99 of 1..100" 99 (Cost.Stats.p99 xs);
  check Alcotest.int "p999 of 1..100" 100 (Cost.Stats.p999 xs);
  let ys = List.init 1000 (fun i -> i + 1) in  (* 1..1000 *)
  check Alcotest.int "p999 of 1..1000" 999 (Cost.Stats.p999 ys);
  check Alcotest.int "p50 singleton" 7 (Cost.Stats.p50 [ 7 ]);
  check Alcotest.int "p999 singleton" 7 (Cost.Stats.p999 [ 7 ]);
  check Alcotest.int "p50 of two" 1 (Cost.Stats.p50 [ 2; 1 ]);
  (match Cost.Stats.p50 [] with
   | _ -> Alcotest.fail "empty must raise"
   | exception Invalid_argument _ -> ());
  match Cost.Stats.percentile 1.5 [ 1 ] with
  | _ -> Alcotest.fail "q > 1 must raise"
  | exception Invalid_argument _ -> ()

(* --- serve: determinism and report shape --- *)

let serve_args = (5, 97, 6, 4)  (* n, seed, requests, migrate_every *)

let run_serve ~shards () =
  let n, seed, requests, migrate_every = serve_args in
  Serve.run ~shards ~requests ~migrate_every ~n ~seed ()

let test_serve_shard_determinism () =
  let json t = Json.to_string (Serve.json t) in
  let a = json (run_serve ~shards:1 ()) in
  let b = json (run_serve ~shards:4 ()) in
  let c = json (run_serve ~shards:8 ()) in
  check Alcotest.string "shards 1 = shards 4" a b;
  check Alcotest.string "shards 1 = shards 8" a c

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_serve_report_shape () =
  let t = run_serve ~shards:1 () in
  let j = Json.to_string (Serve.json t) in
  check Alcotest.bool "schema stamped" true
    (contains ~needle:"\"schema\":\"neve-slo-report/1\"" j);
  check Alcotest.bool "checker clean" true t.Serve.s_clean;
  check Alcotest.int "all five configs reported" 5
    (List.length t.Serve.s_by_config);
  List.iter
    (fun pc ->
      check Alcotest.bool
        (Fmt.str "%s: machines > 0" pc.Serve.pc_name)
        true (pc.Serve.pc_machines > 0);
      check Alcotest.bool
        (Fmt.str "%s: percentiles ordered (p50 %d <= p99 %d <= p999 %d)"
           pc.Serve.pc_name pc.Serve.pc_virq_p50 pc.Serve.pc_virq_p99
           pc.Serve.pc_virq_p999)
        true
        (pc.Serve.pc_virq_p50 <= pc.Serve.pc_virq_p99
        && pc.Serve.pc_virq_p99 <= pc.Serve.pc_virq_p999
        && pc.Serve.pc_req_p50 <= pc.Serve.pc_req_p99
        && pc.Serve.pc_req_p99 <= pc.Serve.pc_req_p999);
      check Alcotest.bool
        (Fmt.str "%s: migrations ran" pc.Serve.pc_name)
        true
        (pc.Serve.pc_migrations > 0))
    t.Serve.s_by_config

(* --- the SMP fuzz campaign --- *)

let test_smp_fuzz_no_findings () =
  let r = Fuzz.Smp.run ~ops:16 ~seed:7 ~n:3 () in
  check Alcotest.int "no divergences, no violations" 0
    (Fuzz.Smp.finding_count r);
  check Alcotest.bool "shootdowns actually happened" true
    (r.Fuzz.Smp.r_shootdowns > 0);
  check Alcotest.int "all eight columns ran" 8
    (List.length r.Fuzz.Smp.r_columns)

let test_smp_fuzz_deterministic () =
  let run () =
    Json.to_string (Fuzz.Smp.json (Fuzz.Smp.run ~ops:12 ~seed:3 ~n:2 ()))
  in
  let a = run () and b = run () in
  check Alcotest.string "same seed, same report" a b

let suite =
  [
    Alcotest.test_case "shootdown: fresh reads" `Quick test_fresh_reads;
    Alcotest.test_case "shootdown: correct BBM sequence is clean" `Quick
      test_bbm_correct_sequence_is_clean;
    Alcotest.test_case "shootdown: in-window stale reads permitted" `Quick
      test_bbm_window_reads_are_permitted;
    Alcotest.test_case "shootdown: stale after completion flagged" `Quick
      test_stale_after_completion_is_flagged;
    Alcotest.test_case "shootdown: make without break flagged" `Quick
      test_make_without_break_is_flagged;
    Alcotest.test_case "shootdown: make before completion flagged" `Quick
      test_make_before_completion_is_flagged;
    Alcotest.test_case "regression: local-only remap leaves vCPU 1 stale"
      `Quick test_local_only_remap_leaves_remote_stale;
    Alcotest.test_case "regression: broadcast remap is stale-proof" `Quick
      test_bbm_remap_is_stale_proof;
    Alcotest.test_case "shootdown charges the recipient's meter" `Quick
      test_shootdown_charges_recipient;
    Alcotest.test_case "shootdown reaches the shadow stage-2" `Quick
      test_shootdown_reaches_shadow;
    Alcotest.test_case "dist: SGI fan-out, banked state" `Quick
      test_dist_sgi_fanout_banked;
    Alcotest.test_case "machine IPIs go through the distributor" `Quick
      test_machine_ipi_goes_through_dist;
    Alcotest.test_case "Exit_sgi carries a faithful ISS" `Quick
      test_exit_sgi_esr_iss;
    Alcotest.test_case "percentiles on known distributions" `Quick
      test_percentiles_known_distributions;
    Alcotest.test_case "serve: byte-identical across shard counts" `Quick
      test_serve_shard_determinism;
    Alcotest.test_case "serve: report shape and SLO sanity" `Quick
      test_serve_report_shape;
    Alcotest.test_case "smp fuzz: no findings on the baseline" `Quick
      test_smp_fuzz_no_findings;
    Alcotest.test_case "smp fuzz: deterministic report" `Quick
      test_smp_fuzz_deterministic;
  ]
