(* Tests for the workload layer: microbenchmark shape invariants, the
   virtio notification-suppression model, and Figure 2 shape assertions —
   the paper's qualitative claims, checked mechanically. *)

module Micro = Workloads.Micro
module Scenario = Workloads.Scenario
module Virtio = Workloads.Virtio
module App = Workloads.App_bench
module Profiles = Workloads.Profiles

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let arm_cycles col bench = (Micro.measure_arm ~iters:4 col bench).Micro.cycles
let arm_traps col bench = (Micro.measure_arm ~iters:4 col bench).Micro.traps

let vm = Scenario.Arm_vm
let v83 = Scenario.Arm_nested (Hyp.Config.v Hyp.Config.Hw_v8_3)
let v83_vhe = Scenario.Arm_nested (Hyp.Config.v ~guest_vhe:true Hyp.Config.Hw_v8_3)
let neve = Scenario.Arm_nested (Hyp.Config.v Hyp.Config.Hw_neve)
let neve_vhe = Scenario.Arm_nested (Hyp.Config.v ~guest_vhe:true Hyp.Config.Hw_neve)

(* --- microbenchmark shape (Tables 1 and 6) --- *)

let test_hypercall_ordering () =
  let c_vm = arm_cycles vm Micro.Hypercall in
  let c_v83 = arm_cycles v83 Micro.Hypercall in
  let c_vhe = arm_cycles v83_vhe Micro.Hypercall in
  let c_neve = arm_cycles neve Micro.Hypercall in
  check Alcotest.bool "VM < NEVE" true (c_vm < c_neve);
  check Alcotest.bool "NEVE < VHE" true (c_neve < c_vhe);
  check Alcotest.bool "VHE < v8.3" true (c_vhe < c_v83);
  (* paper: "NEVE provides up to 5 times faster performance than ARMv8.3" *)
  check Alcotest.bool "NEVE at least 4x faster than v8.3" true
    (c_v83 > 4. *. c_neve);
  (* paper: nested VM 155x slower than VM on v8.3 *)
  check Alcotest.bool
    (Fmt.str "v8.3 overhead ~155x (got %.0fx)" (c_v83 /. c_vm))
    true
    (c_v83 /. c_vm > 100. && c_v83 /. c_vm < 220.)

let test_neve_vhe_costs_more_despite_equal_traps () =
  (* Table 6/7: same trap count, higher cycle count for VHE (the extra
     EL2 virtual timer, Section 7.1) *)
  let c = arm_cycles neve Micro.Hypercall in
  let c_vhe = arm_cycles neve_vhe Micro.Hypercall in
  check Alcotest.bool "NEVE VHE costs more" true (c_vhe > c);
  let t = arm_traps neve Micro.Hypercall in
  let t_vhe = arm_traps neve_vhe Micro.Hypercall in
  check Alcotest.bool "trap counts within one of each other" true
    (Float.abs (t -. t_vhe) <= 1.)

let test_virtual_eoi_constant () =
  (* Tables 1 and 6: 71 cycles in every ARM configuration, zero traps *)
  List.iter
    (fun col ->
      let r = Micro.measure_arm ~iters:4 col Micro.Virtual_eoi in
      check (Alcotest.float 0.01) "71 cycles" 71. r.Micro.cycles;
      check (Alcotest.float 0.01) "no traps" 0. r.Micro.traps)
    [ vm; v83; v83_vhe; neve; neve_vhe ]

let test_device_io_costs_more_than_hypercall () =
  List.iter
    (fun col ->
      check Alcotest.bool "Device I/O >= Hypercall" true
        (arm_cycles col Micro.Device_io >= arm_cycles col Micro.Hypercall))
    [ vm; v83; neve ]

let test_ipi_costs_more_than_hypercall () =
  List.iter
    (fun col ->
      check Alcotest.bool "Virtual IPI > Hypercall" true
        (arm_cycles col Micro.Virtual_ipi > arm_cycles col Micro.Hypercall))
    [ vm; v83; neve ]

let test_relative_overhead_comparable_to_x86 () =
  (* Table 6: "a guest hypervisor using NEVE has similar overhead to x86"
     — NEVE 34-37x vs x86 31x for Hypercall *)
  let arm_rel =
    arm_cycles neve Micro.Hypercall /. arm_cycles vm Micro.Hypercall
  in
  let x86_vm = (Micro.measure_x86 ~iters:4 Scenario.X86_vm Micro.Hypercall).Micro.cycles in
  let x86_nested =
    (Micro.measure_x86 ~iters:4 Scenario.X86_nested Micro.Hypercall).Micro.cycles
  in
  let x86_rel = x86_nested /. x86_vm in
  check Alcotest.bool
    (Fmt.str "NEVE relative overhead (%.0fx) within 2x of x86 (%.0fx)" arm_rel
       x86_rel)
    true
    (arm_rel < 2. *. x86_rel && x86_rel < 2. *. arm_rel)

(* --- virtio suppression model --- *)

let test_virtio_slow_backend_suppresses () =
  (* bursty arrivals, slow backend: one kick per burst *)
  let kicks =
    Virtio.kicks_for ~packets:60 ~burst:6 ~spacing:1_000. ~gap:200_000.
      ~service:24_000. ~backend_speedup:1.0
  in
  check Alcotest.int "one kick per burst" 10 kicks

let test_virtio_fast_backend_kicks_more () =
  (* the anomaly: a faster backend drains between packets and must be
     kicked for every one *)
  let slow =
    Virtio.kicks_for ~packets:60 ~burst:6 ~spacing:9_000. ~gap:130_000.
      ~service:26_000. ~backend_speedup:1.0
  in
  let fast =
    Virtio.kicks_for ~packets:60 ~burst:6 ~spacing:9_000. ~gap:130_000.
      ~service:26_000. ~backend_speedup:3.0
  in
  check Alcotest.bool
    (Fmt.str "fast backend kicks >4x more (%d vs %d)" fast slow)
    true
    (fast > 4 * slow)

let speedup_arb =
  QCheck.make ~print:string_of_float QCheck.Gen.(float_range 1.0 8.0)

let test_virtio_monotone =
  QCheck.Test.make ~count:100
    ~name:"virtio: kicks never decrease with backend speed" speedup_arb
    (fun speedup ->
      let base =
        Virtio.kicks_for ~packets:100 ~burst:5 ~spacing:8_000. ~gap:100_000.
          ~service:30_000. ~backend_speedup:1.0
      in
      let faster =
        Virtio.kicks_for ~packets:100 ~burst:5 ~spacing:8_000. ~gap:100_000.
          ~service:30_000. ~backend_speedup:speedup
      in
      faster >= base)

let test_virtio_kick_bounds =
  QCheck.Test.make ~count:100 ~name:"virtio: 1 <= kicks <= packets"
    speedup_arb (fun speedup ->
      let kicks =
        Virtio.kicks_for ~packets:50 ~burst:5 ~spacing:8_000. ~gap:100_000.
          ~service:30_000. ~backend_speedup:speedup
      in
      kicks >= 1 && kicks <= 50)

(* --- Figure 2 shape --- *)

let fig2 = lazy (App.figure2 ())

let cell row col =
  let r = List.find (fun r -> r.App.workload = row) (Lazy.force fig2) in
  (List.find (fun c -> c.App.column = col) r.App.cells).App.value

let test_fig2_all_overheads_above_one () =
  List.iter
    (fun r ->
      List.iter
        (fun c ->
          check Alcotest.bool
            (r.App.workload ^ "/" ^ c.App.column ^ " >= 1")
            true (c.App.value >= 1.0))
        r.App.cells)
    (Lazy.force fig2)

let test_fig2_v83_worst_on_arm () =
  List.iter
    (fun r ->
      let get col = (List.find (fun c -> c.App.column = col) r.App.cells).App.value in
      check Alcotest.bool (r.App.workload ^ ": v8.3 >= VHE >= NEVE") true
        (get "ARMv8.3 Nested" >= get "ARMv8.3 Nested VHE"
         && get "ARMv8.3 Nested VHE" >= get "NEVE Nested" -. 0.01
         && get "NEVE Nested" >= get "ARMv8.3 VM"))
    (Lazy.force fig2)

let test_fig2_network_blowup () =
  (* "in some cases more than 40 times native execution" for v8.3 *)
  check Alcotest.bool "some workload exceeds 40x on v8.3" true
    (List.exists
       (fun r ->
         List.exists
           (fun c -> c.App.column = "ARMv8.3 Nested" && c.App.value > 40.)
           r.App.cells)
       (Lazy.force fig2))

let test_fig2_cpu_workloads_modest () =
  (* kernbench and SPECjvm: modest overhead even nested (24-33% in the
     paper) *)
  List.iter
    (fun w ->
      check Alcotest.bool (w ^ " modest on v8.3") true
        (cell w "ARMv8.3 Nested" < 1.6))
    [ "kernbench"; "SPECjvm2008" ]

let test_fig2_neve_order_of_magnitude () =
  (* "reducing performance overhead by more than or close to an order of
     magnitude": check on Memcached as the paper highlights *)
  let v83 = cell "Memcached" "ARMv8.3 Nested" in
  let neve = cell "Memcached" "NEVE Nested" in
  check Alcotest.bool
    (Fmt.str "memcached %.1f -> %.1f, >10x less overhead-above-native" v83 neve)
    true
    ((v83 -. 1.) > 10. *. (neve -. 1.))

let test_fig2_memcached_anomaly () =
  (* "Memcached running in a nested VM on x86 shows an 8 times slowdown
     compared to only a 2.5 times slowdown on NEVE" *)
  let x86 = cell "Memcached" "x86 Nested" in
  let neve = cell "Memcached" "NEVE Nested" in
  check Alcotest.bool (Fmt.str "x86 (%.1f) much worse than NEVE (%.1f)" x86 neve)
    true
    (x86 > 2. *. neve);
  check Alcotest.bool "x86 memcached in the 6-12x band" true
    (x86 > 6. && x86 < 12.)

let test_fig2_neve_beats_x86_where_paper_says () =
  (* "NEVE incurs significantly less overhead than both ARMv8.3 and x86 on
     many of the network-related workloads, including Netperf TCP MAERTS,
     Nginx, Memcached, and MySQL" *)
  List.iter
    (fun w ->
      let neve = cell w "NEVE Nested" in
      let x86 = cell w "x86 Nested" in
      check Alcotest.bool (Fmt.str "%s: NEVE (%.2f) <= x86 (%.2f)" w neve x86)
        true
        (neve <= x86 +. 0.05))
    [ "TCP_MAERTS"; "Nginx"; "Memcached"; "MySQL" ]

let test_fig2_hackbench_ipi_heavy () =
  (* hackbench suffers from expensive virtual IPIs (15x/11x in the paper) *)
  let v83 = cell "Hackbench" "ARMv8.3 Nested" in
  check Alcotest.bool (Fmt.str "hackbench v8.3 in the 10-20x band (%.1f)" v83)
    true
    (v83 > 10. && v83 < 20.)

let test_sweep_scaling () =
  (* v8.3 traps grow linearly with context size; NEVE stays flat *)
  let series = Workloads.Sweep.run () in
  let find l = List.find (fun s -> s.Workloads.Sweep.s_label = l) series in
  let v83 = find "ARMv8.3" and neve = find "NEVE" in
  let v83_slope = Workloads.Sweep.slope v83.Workloads.Sweep.s_points in
  let neve_slope = Workloads.Sweep.slope neve.Workloads.Sweep.s_points in
  check Alcotest.bool
    (Fmt.str "v8.3 slope ~2 traps/register (%.2f)" v83_slope)
    true
    (v83_slope > 1.5 && v83_slope < 2.5);
  check (Alcotest.float 0.01) "NEVE slope is zero" 0.0 neve_slope;
  (* monotone in n for v8.3 *)
  let rec monotone = function
    | (a : Workloads.Sweep.point) :: (b :: _ as rest) ->
      a.Workloads.Sweep.p_traps <= b.Workloads.Sweep.p_traps && monotone rest
    | _ -> true
  in
  check Alcotest.bool "v8.3 monotone" true (monotone v83.Workloads.Sweep.s_points)

let test_deviations_within_documented_bands () =
  (* the regenerable EXPERIMENTS.md table: every cell within its band *)
  let lines =
    Workloads.Compare.cycles ~benches:[ Micro.Hypercall; Micro.Virtual_ipi ] ()
    @ Workloads.Compare.traps ~benches:[ Micro.Hypercall ] ()
  in
  List.iter
    (fun (l : Workloads.Compare.line) ->
      check Alcotest.bool
        (Fmt.str "%s/%s within band (paper %.0f, measured %.0f, %a)"
           (Micro.name l.Workloads.Compare.l_bench)
           l.Workloads.Compare.l_column l.Workloads.Compare.l_paper
           l.Workloads.Compare.l_measured Workloads.Paper.pp_deviation
           l.Workloads.Compare.l_deviation)
        true
        (Workloads.Compare.within_band l))
    lines

let test_profiles_lookup () =
  check Alcotest.bool "by_name finds memcached" true
    (Profiles.by_name "memcached" <> None);
  check Alcotest.bool "unknown workload" true (Profiles.by_name "doom" = None);
  check Alcotest.int "ten workloads" 10 (List.length Profiles.all)

(* --- cost/stats helpers --- *)

let test_stats () =
  check (Alcotest.float 0.001) "mean" 2.0 (Cost.Stats.mean [ 1.; 2.; 3. ]);
  check (Alcotest.float 0.001) "overhead" 2.5
    (Cost.Stats.overhead ~baseline:2. ~measured:5.);
  check Alcotest.int "slowdown_x rounds" 3
    (Cost.Stats.slowdown_x ~baseline:2. ~measured:5.);
  check Alcotest.bool "stddev of constant is 0" true
    (Cost.Stats.stddev [ 4.; 4.; 4. ] = 0.);
  let lo, hi = Cost.Stats.min_max [ 3.; 1.; 2. ] in
  check (Alcotest.float 0.001) "min" 1. lo;
  check (Alcotest.float 0.001) "max" 3. hi

let test_meter_delta () =
  let m = Cost.make_meter () in
  Cost.charge m 100;
  let s = Cost.snapshot m in
  Cost.charge m 50;
  Cost.record_trap m Cost.Trap_hvc;
  let d = Cost.delta_since m s in
  check Alcotest.int "cycle delta" 50 d.Cost.d_cycles;
  check Alcotest.int "trap delta" 1 d.Cost.d_traps;
  check Alcotest.int "by kind" 1
    (Option.value ~default:0 (List.assoc_opt Cost.Trap_hvc d.Cost.d_by_kind))

(* Golden values for the paper workload matrix, pinned from the tree
   before the dense-index register file and decode cache landed: the
   performance work must not move a single simulated cycle or trap. *)
let test_table6_goldens () =
  let expect =
    [ (vm, 2596., 1.); (v83, 424461., 121.); (v83_vhe, 222715., 57.);
      (neve, 82323., 13.); (neve_vhe, 83507., 13.) ]
  in
  List.iter
    (fun (col, cycles, traps) ->
      let r = Micro.measure_arm ~iters:4 col Micro.Hypercall in
      check (Alcotest.float 0.5) "cycles" cycles r.Micro.cycles;
      check (Alcotest.float 0.5) "traps" traps r.Micro.traps)
    expect;
  let x86_vm = Micro.measure_x86 ~iters:4 Scenario.X86_vm Micro.Hypercall in
  let x86_nested =
    Micro.measure_x86 ~iters:4 Scenario.X86_nested Micro.Hypercall
  in
  check (Alcotest.float 0.5) "x86 VM cycles" 1230. x86_vm.Micro.cycles;
  check (Alcotest.float 0.5) "x86 nested cycles" 37255. x86_nested.Micro.cycles

let suite =
  [
    ("micro: hypercall cost ordering", `Quick, test_hypercall_ordering);
    ("micro: Table 6 goldens unchanged by the perf pass", `Quick,
     test_table6_goldens);
    ("micro: NEVE VHE dearer at equal traps", `Quick,
     test_neve_vhe_costs_more_despite_equal_traps);
    ("micro: Virtual EOI constant 71 cycles", `Quick, test_virtual_eoi_constant);
    ("micro: Device I/O >= Hypercall", `Quick,
     test_device_io_costs_more_than_hypercall);
    ("micro: IPI > Hypercall", `Quick, test_ipi_costs_more_than_hypercall);
    ("micro: NEVE relative overhead ~ x86", `Quick,
     test_relative_overhead_comparable_to_x86);
    ("virtio: slow backend suppresses kicks", `Quick,
     test_virtio_slow_backend_suppresses);
    ("virtio: fast backend kicks 4x+", `Quick, test_virtio_fast_backend_kicks_more);
    qtest test_virtio_monotone;
    qtest test_virtio_kick_bounds;
    ("fig2: overheads >= 1", `Quick, test_fig2_all_overheads_above_one);
    ("fig2: v8.3 >= VHE >= NEVE >= VM", `Quick, test_fig2_v83_worst_on_arm);
    ("fig2: network blow-up beyond 40x", `Quick, test_fig2_network_blowup);
    ("fig2: CPU workloads stay modest", `Quick, test_fig2_cpu_workloads_modest);
    ("fig2: NEVE is an order of magnitude better", `Quick,
     test_fig2_neve_order_of_magnitude);
    ("fig2: the Memcached anomaly", `Quick, test_fig2_memcached_anomaly);
    ("fig2: NEVE beats x86 where the paper says", `Quick,
     test_fig2_neve_beats_x86_where_paper_says);
    ("fig2: Hackbench is IPI-bound", `Quick, test_fig2_hackbench_ipi_heavy);
    ("sweep: linear on v8.3, flat under NEVE", `Quick, test_sweep_scaling);
    ("paper-vs-measured deviations in band", `Quick,
     test_deviations_within_documented_bands);
    ("profiles: lookup", `Quick, test_profiles_lookup);
    ("stats helpers", `Quick, test_stats);
    ("meter snapshots and deltas", `Quick, test_meter_delta);
  ]
