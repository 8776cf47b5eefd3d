(* The tracing layer's own contract: ring-buffer semantics, counter
   aggregation, the class-sum == trap-count identity against real
   machines, and the transparency property — tracing on or off, the
   architectural observation of every fuzz column is bit-identical. *)

open Alcotest

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* Every test owns the global sink; make sure none leaks an enabled
   tracer into the rest of the suite. *)
let with_trace ?(capacity = 64) f =
  Trace.enable ~capacity ();
  Fun.protect ~finally:(fun () -> Trace.disable ()) f

let test_ring_wrap () =
  with_trace ~capacity:8 (fun () ->
      for i = 0 to 19 do
        Trace.emit ~a0:(Int64.of_int i) Trace.Tlb_hit
      done;
      check int "total emitted" 20 (Trace.total_emitted ());
      check int "dropped = emitted - capacity" 12 (Trace.dropped ());
      let evs = Trace.events () in
      check int "window is capacity" 8 (List.length evs);
      let seqs = List.map (fun v -> v.Trace.v_seq) evs in
      check (list int) "oldest-first, newest retained"
        [ 12; 13; 14; 15; 16; 17; 18; 19 ]
        seqs)

(* [last n] builds views only for the events it returns; it must still
   be exactly the tail of the retained window *)
let test_last_is_tail () =
  let tail n l =
    let len = List.length l in
    List.filteri (fun i _ -> i >= len - n) l
  in
  let render = List.map Trace.render in
  let check_tails label =
    let evs = Trace.events () in
    let retained = List.length evs in
    List.iter
      (fun n ->
        check (list string)
          (Printf.sprintf "%s: last %d = tail of events" label n)
          (render (tail n evs)) (render (Trace.last n)))
      [ 0; 1; 3; retained - 1; retained; retained + 5 ]
  in
  with_trace ~capacity:8 (fun () ->
      check (list string) "empty ring: last 3" [] (render (Trace.last 3));
      for i = 0 to 4 do
        Trace.emit ~a0:(Int64.of_int i) Trace.Tlb_hit
      done;
      check_tails "unwrapped";
      for i = 5 to 19 do
        Trace.emit ~a0:(Int64.of_int i) ~cls:"hvc" Trace.Trap
      done;
      check_tails "wrapped";
      check (list int) "wrapped: last 3 seqs" [ 17; 18; 19 ]
        (List.map (fun v -> v.Trace.v_seq) (Trace.last 3)))

let test_counters_only_traps () =
  with_trace (fun () ->
      Trace.emit ~cls:"hvc" Trace.Trap;
      Trace.emit ~cls:"hvc" Trace.Trap;
      Trace.emit ~cls:"sysreg" Trace.Trap;
      (* non-Trap events must not touch the class counters *)
      Trace.emit ~cls:"hvc" Trace.Exn_entry;
      Trace.emit Trace.Ws_enter;
      Trace.emit Trace.Tlb_miss;
      check int "class_total counts only Trap events" 3 (Trace.class_total ());
      check int "per-class count" 2 (Trace.class_count "hvc");
      let sum =
        List.fold_left (fun a (_, n) -> a + n) 0 (Trace.class_counts ())
      in
      check int "sum of class_counts = class_total" (Trace.class_total ()) sum)

let test_disabled_is_inert () =
  with_trace (fun () -> Trace.emit ~cls:"hvc" Trace.Trap);
  check bool "disabled after with_trace" false (Trace.is_on ());
  let before = Trace.total_emitted () in
  Trace.emit ~cls:"hvc" Trace.Trap;
  check int "emit while disabled is a no-op" before (Trace.total_emitted ());
  check int "counters still readable after disable" 1 (Trace.class_total ())

(* The load-bearing identity: the per-class counters are incremented at
   the [Cost.record_trap] chokepoint, so their sum must equal the meter
   trap deltas of every CPU — for any mechanism. *)
let test_class_sum_equals_meter_traps () =
  List.iter
    (fun mech ->
      let config = Hyp.Config.v mech in
      let m =
        Workloads.Scenario.make_arm (Workloads.Scenario.Arm_nested config)
      in
      let meters =
        Array.to_list (Array.map (fun c -> c.Arm.Cpu.meter) m.Hyp.Machine.cpus)
      in
      with_trace ~capacity:4096 (fun () ->
          let snaps = List.map Cost.snapshot meters in
          for _ = 1 to 5 do
            Hyp.Machine.hypercall m ~cpu:0;
            Hyp.Machine.mmio_access m ~cpu:0
              ~addr:Workloads.Micro.virtio_mmio_base ~is_write:true
          done;
          let meter_traps =
            List.fold_left2
              (fun acc meter snap ->
                acc + (Cost.delta_since meter snap).Cost.d_traps)
              0 meters snaps
          in
          check int
            (Printf.sprintf "%s: class sum = meter traps"
               (Hyp.Config.name config))
            meter_traps (Trace.class_total ());
          check bool
            (Printf.sprintf "%s: nested ops do trap" (Hyp.Config.name config))
            true
            (meter_traps > 0)))
    [ Hyp.Config.Hw_v8_3; Hyp.Config.Hw_neve ]

(* Satellite property: enabling tracing must not perturb the simulation.
   Same program, every fuzz column, traced and untraced — the
   architectural observations are structurally identical once the
   trace-carrying fields are stripped. *)
let strip (o : Fuzz.Diff.obs) = { o with Fuzz.Diff.ob_events = []; ob_ctx = None }

let test_tracing_transparent () =
  let gen = Fuzz.Gen.create ~seed:0xace in
  for _ = 1 to 2 do
    let words = Fuzz.Prog.to_words (Fuzz.Gen.program gen) in
    let plain = Fuzz.Diff.run_words words in
    let traced = Fuzz.Diff.run_words ~traced:true words in
    List.iter2
      (fun (c, o) (c', o') ->
        check string "same column order" c.Fuzz.Diff.col_name
          c'.Fuzz.Diff.col_name;
        check bool
          (Printf.sprintf "%s: traced obs = untraced obs" c.Fuzz.Diff.col_name)
          true
          (strip o = strip o'))
      plain.Fuzz.Diff.res_obs traced.Fuzz.Diff.res_obs;
    check int "same divergences"
      (List.length plain.Fuzz.Diff.res_divergences)
      (List.length traced.Fuzz.Diff.res_divergences)
  done;
  check bool "tracing left disabled" false (Trace.is_on ())

let test_traced_obs_carries_events () =
  let budget = Fuzz.Diff.budget_for [| 0 |] in
  let config = Hyp.Config.v Hyp.Config.Hw_v8_3 in
  (* a single hvc #0 word: the program traps at least once *)
  let words = Fuzz.Prog.to_words [ Fuzz.Prog.Straight [ Arm.Insn.Hvc 0 ] ] in
  let o = Fuzz.Diff.run_column ~traced:true ~budget config words in
  check bool "traced run records events" true (o.Fuzz.Diff.ob_events <> []);
  let o' = Fuzz.Diff.run_column ~budget config words in
  check (list string) "untraced run records nothing" []
    o'.Fuzz.Diff.ob_events

(* Traced runs execute on the interpreter's one engine: over the seed-11
   campaign programs, every fuzz column run traced through [Interp.run]
   and through the test-only reference loop ([Ref_interp]) records the
   same event stream and the same per-class trap sum, and that sum is
   still the column's meter trap count. *)
let traced_engine_seed = 11
let traced_engine_n = 300

let test_traced_runs_use_the_engine () =
  let gen = Fuzz.Gen.create ~seed:traced_engine_seed in
  for i = 0 to traced_engine_n - 1 do
    let words = Fuzz.Prog.to_words (Fuzz.Gen.program gen) in
    let budget = Fuzz.Diff.budget_for words in
    List.iter
      (fun c ->
        let traced run =
          let o =
            Fuzz.Diff.run_column ~run ~traced:true
              ~expose:c.Fuzz.Diff.col_expose ~budget c.Fuzz.Diff.col_config
              words
          in
          (o, Trace.class_total ())
        in
        let o, sum = traced Arm.Interp.run in
        let r, rsum = traced Ref_interp.run in
        let what fmt =
          Printf.sprintf ("seed %d, program %d, %s: " ^^ fmt) traced_engine_seed
            i c.Fuzz.Diff.col_name
        in
        check (list string) (what "events = reference events")
          r.Fuzz.Diff.ob_events o.Fuzz.Diff.ob_events;
        check int (what "class sum = reference class sum") rsum sum;
        check int (what "class sum = meter traps") o.Fuzz.Diff.ob_traps sum)
      Fuzz.Diff.columns
  done;
  check bool "tracing left disabled" false (Trace.is_on ())

let test_chrome_json_shape () =
  with_trace (fun () ->
      Trace.emit ~cycles:10 ~cls:"hvc" ~detail:"x" Trace.Trap;
      Trace.emit ~cycles:20 Trace.Ws_enter;
      let json =
        Json.to_string (Trace.chrome_json [ ("col", Trace.events ()) ])
      in
      let has s = contains ~affix:s json in
      check bool "object format" true (String.length json > 2 && json.[0] = '{');
      check bool "traceEvents key" true (has "\"traceEvents\"");
      check bool "instant events" true (has "\"ph\":\"i\"");
      check bool "process metadata" true (has "\"process_name\""))

let test_metrics_json_shape () =
  let json =
    Json.to_string
      (Trace.metrics_json
         ~extra:[ ("iters", 3) ]
         [ ("VM", [ ("hvc", 2); ("sysreg", 1) ], 3) ])
  in
  let has s = contains ~affix:s json in
  check bool "schema" true (has "neve-trace-metrics/1");
  check bool "config row" true (has "\"VM\"");
  check bool "extra field" true (has "\"iters\":3")

let test_error_context_carries_events () =
  let cpu = Arm.Cpu.create () in
  with_trace (fun () ->
      Trace.emit ~cls:"hvc" ~detail:"evidence" Trace.Trap;
      let ctx = Fault.Error.context_of_cpu cpu in
      check bool "fc_events captured under tracing" true
        (ctx.Fault.Error.fc_events <> []));
  let ctx = Fault.Error.context_of_cpu cpu in
  check (list string) "fc_events empty when disabled" []
    ctx.Fault.Error.fc_events

let suite =
  [
    ("ring: wrap keeps newest window", `Quick, test_ring_wrap);
    ("ring: last n = tail of events", `Quick, test_last_is_tail);
    ("counters: only Trap events count", `Quick, test_counters_only_traps);
    ("disabled: emit is inert", `Quick, test_disabled_is_inert);
    ("identity: class sum = meter traps", `Quick,
     test_class_sum_equals_meter_traps);
    ("transparency: traced = untraced across fuzz columns", `Slow,
     test_tracing_transparent);
    ("fuzz: traced obs carries the event stream", `Quick,
     test_traced_obs_carries_events);
    ("traced runs: Interp.run = reference, every column", `Slow,
     test_traced_runs_use_the_engine);
    ("chrome export: structural shape", `Quick, test_chrome_json_shape);
    ("metrics export: structural shape", `Quick, test_metrics_json_shape);
    ("error context: events ride along", `Quick,
     test_error_context_carries_events);
  ]
