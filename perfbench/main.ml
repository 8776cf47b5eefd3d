(* The benchmark executable.  One workload per process, one domain, one
   closed-loop client.

     main.exe run WORKLOAD --seed N --seconds S [--traced] [--spans-dir D] [--out FILE]
     main.exe setup WORKLOAD

   [run] performs the workload's set-up, then [S] x the workload's
   segments-per-second constant segments of fixed work, in an order
   drawn from the seed, timing each segment.  It prints one line per
   metric, "workload metric value unit", and writes the results as JSON
   to [--out].  Untraced, the metrics are
   the end-to-end ones; with [--traced] the same work runs with bench-side
   spans and the event ring on every eighth segment, followed by the
   layer rows, and the metrics are the per-layer ones.  [setup] performs the
   set-up alone, so a caller can time set-up in fresh processes. *)

let now_ns = Spans.now_ns

type metric = { m_name : string; m_value : float; m_unit : string }

let m name value unit = { m_name = name; m_value = value; m_unit = unit }

(* Ring event kinds and trap classes reported per operation in the
   traced pass.  Fixed lists, so every workload reports the same metric
   names; a kind a workload never emits reads 0.  Left out: kinds that
   equal one kept here by construction (a world switch per trap, a
   stage-2 walk per TLB miss) and classes no workload takes. *)
let ring_metrics =
  [
    ("arm.exn_entries_per_op", "exn-entry");
    ("core.vncr_redirects_per_op", "vncr-redirect");
    ("core.page_populates_per_op", "page-populate");
    ("core.page_drains_per_op", "page-drain");
    ("mmu.tlb_misses_per_op", "tlb-miss");
    ("mmu.shootdowns_per_op", "tlb-shootdown");
    ("expose.accesses_per_op", "exposed-access");
  ]

let trap_classes =
  List.map Cost.trap_kind_name
    Cost.
      [
        Trap_hvc; Trap_sysreg_el2; Trap_sysreg_el1; Trap_sysreg_el12; Trap_sysreg_timer;
        Trap_sysreg_gic; Trap_eret; Trap_mmio; Trap_irq; Trap_smc; Trap_mem_fault;
      ]

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let write_results path ~workload ~seed ~seconds ~traced ~segments ~(r : Suite.report)
    ~problems ~metrics ~info ~times ~cal =
  let oc = open_out path in
  let field_list f xs = String.concat ", " (List.map f xs) in
  Printf.fprintf oc
    "{\"workload\": %s, \"seed\": %d, \"seconds\": %s, \"traced\": %b, \
     \"segments\": %d,\n \"attempted\": %d, \"failed\": %d, \"correct\": %b, \
     \"digest\": %s,\n \"problems\": [%s],\n \"metrics\": {%s},\n \"info\": [%s],\n \
     \"segment_ms\": [%s],\n \"calibration_ms\": [%s]}\n"
    (json_string workload) seed (json_float seconds) traced segments r.Suite.attempted
    r.Suite.failed (problems = [])
    (json_string (Printf.sprintf "%016Lx" r.Suite.digest))
    (field_list json_string problems)
    (field_list
       (fun x ->
         Printf.sprintf "\n  %s: {\"value\": %s, \"unit\": %s}" (json_string x.m_name)
           (json_float x.m_value) (json_string x.m_unit))
       metrics)
    (field_list
       (fun x ->
         Printf.sprintf "\n  [%s, %s, %s]" (json_string x.m_name) (json_float x.m_value)
           (json_string x.m_unit))
       info)
    (field_list (fun t -> Printf.sprintf "%.3f" (t /. 1e6)) (Array.to_list times))
    (field_list (fun t -> Printf.sprintf "%.3f" (t /. 1e6)) (Array.to_list cal));
  close_out oc

(* The order in which a run executes its segments: a permutation of
   0..n-1 drawn from the seed. *)
let segment_order ~seed n =
  let rng = Random.State.make [| seed |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let run ~workload ~seed ~seconds ~traced ~spans_dir ~out =
  let w = Suite.setup workload in
  let segments =
    max 4 (int_of_float (Float.round (seconds *. w.Suite.segments_per_second)))
  in
  let order = segment_order ~seed segments in
  let spans =
    if traced then
      Some
        (Spans.create
           ((segments * 4 * ((w.Suite.ops_per_segment / w.Suite.sample_every) + 1))
           + segments))
    else None
  in
  let h = Harness.create ?spans ~sample_every:w.Suite.sample_every () in
  let times = Array.make segments 0. in
  (* segment k lies between calibrations k and k + 1; the first one
     also builds the loop's state, outside the measured window *)
  let cal = Array.make (segments + 1) 0. in
  cal.(0) <- Harness.calibrate ();
  let copies0 = Hyp.World_switch.reg_copies () in
  let gc0 = Gc.quick_stat () in
  for k = 0 to segments - 1 do
    Harness.begin_segment h k;
    let t0 = now_ns () in
    w.Suite.segment h order.(k);
    times.(k) <- now_ns () -. t0;
    Harness.end_segment h;
    cal.(k + 1) <- Harness.calibrate ()
  done;
  let gc1 = Gc.quick_stat () in
  let copies = Hyp.World_switch.reg_copies () - copies0 in
  let r = w.Suite.report ~segments in
  (* after the workload: on OCaml 5.1, Bechamel's forced collections
     leave the major GC pacing so that a later promotion-heavy phase (the
     ring on under fuzz-cold) grows the heap past 1 GiB *)
  let layer_rows = if traced then Layers.all () else [] in
  let ops = float_of_int r.Suite.attempted in
  let seg_ops = float_of_int w.Suite.ops_per_segment in
  let info =
    [
      m "segments" (float_of_int segments) "count";
      m "harness.seg_ms_p50" (Harness.median times /. 1e6) "ms";
      m "harness.seg_ms_p80" (Harness.percentile 0.8 times /. 1e6) "ms";
      m "harness.calibration_ms_p50" (Harness.median cal /. 1e6) "ms";
      m "ops_per_s" (seg_ops /. (Harness.median times /. 1e9)) "op/s";
      m "failed_frac" (float_of_int r.Suite.failed /. ops) "ratio";
    ]
    @ List.map (fun (n, v, u) -> m n v u) r.Suite.info
  in
  let problems = ref r.Suite.problems in
  let metrics =
    match spans with
    | None ->
      [
        m "norm_ops_per_s"
          (seg_ops
          /. (Harness.median
                (Array.mapi
                   (fun k t -> t *. Harness.calibration_nominal_ns /. ((cal.(k) +. cal.(k + 1)) /. 2.))
                   times)
             /. 1e9))
          "op/s";
        m "minor_words_per_op" ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. ops) "words/op";
        m "major_gcs_per_kop"
          (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) *. 1000. /. ops)
          "1/kop";
        m "heap_peak_mb"
          (float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.)
          "MiB";
        m "sim_cycles_per_op" r.Suite.sim_cycles_per_op "cycles";
        m "op_p99_cycles" (float_of_int r.Suite.op_p99_cycles) "cycles";
      ]
    | Some sp ->
      let with_ring ring =
        Array.of_list (List.filteri (fun k _ -> Harness.ring_segment k = ring) (Array.to_list times))
      in
      let ring_ops = float_of_int (max 1 h.Harness.ring_ops) in
      let per_ring_op n = float_of_int n /. ring_ops in
      let total_events = Hashtbl.fold (fun _ n acc -> acc + !n) h.Harness.events 0 in
      let total_traps = Hashtbl.fold (fun _ n acc -> acc + !n) h.Harness.classes 0 in
      if h.Harness.ring_ops = 0 then problems := "no sampled operation ran with the ring on" :: !problems;
      if h.Harness.dropped > 0 then
        problems := Printf.sprintf "event ring wrapped: %d events dropped" h.Harness.dropped :: !problems;
      if sp.Spans.dropped > 0 then
        problems := Printf.sprintf "span buffer full: %d spans dropped" sp.Spans.dropped :: !problems;
      problems := !problems @ Spans.check sp;
      (match spans_dir with
       | Some dir ->
         (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
         Spans.write_chrome sp
           (Filename.concat dir (Printf.sprintf "%s-seed%d.trace.json" workload seed))
       | None -> ());
      [
        m "trace.overhead_frac" (1. -. (Harness.median (with_ring false) /. Harness.median (with_ring true))) "ratio";
        m "trace.events_per_op" (per_ring_op total_events) "events/op";
        m "trace.dropped" (float_of_int h.Harness.dropped) "count";
        m "hyp.reg_copies_per_op" (float_of_int copies /. ops) "copies/op";
        m "arm.traps_per_op" (per_ring_op total_traps) "traps/op";
      ]
      @ List.map
          (fun cls ->
            m ("arm.traps_per_op." ^ cls)
              (per_ring_op (Harness.count h.Harness.classes cls))
              "traps/op")
          trap_classes
      @ List.map
          (fun (name, kind) -> m name (per_ring_op (Harness.count h.Harness.events kind)) "events/op")
          ring_metrics
      @ List.map (fun (l : Layers.row) -> m l.Layers.name l.Layers.value l.Layers.unit) layer_rows
  in
  let info =
    match spans with
    | None -> info
    | Some sp ->
      info
      @ List.concat_map
          (fun (s : Spans.summary) ->
            [
              m ("span." ^ s.Spans.s_name ^ ".count") (float_of_int s.Spans.s_count) "count";
              m ("span." ^ s.Spans.s_name ^ ".self_ms") (s.Spans.s_self_ns /. 1e6) "ms";
            ])
          (Spans.summary sp)
  in
  List.iter
    (fun x ->
      if not (Float.is_finite x.m_value) then
        problems := Printf.sprintf "metric %s is not a finite number" x.m_name :: !problems)
    metrics;
  List.iter (fun x -> Printf.printf "%s %s %.6g %s\n" workload x.m_name x.m_value x.m_unit) metrics;
  List.iter (fun x -> Printf.printf "%s info %s %.6g %s\n" workload x.m_name x.m_value x.m_unit) info;
  Printf.printf "%s digest %016Lx\n" workload r.Suite.digest;
  Printf.printf "%s attempted %d failed %d\n" workload r.Suite.attempted r.Suite.failed;
  List.iter (fun p -> Printf.printf "%s problem %s\n" workload p) !problems;
  (match out with
   | Some path ->
     write_results path ~workload ~seed ~seconds ~traced ~segments ~r ~problems:!problems
       ~metrics ~info ~times ~cal
   | None -> ());
  if !problems <> [] then exit 1

let usage () =
  prerr_endline
    "usage: main.exe run WORKLOAD --seed N --seconds S [--traced] [--spans-dir D] [--out FILE]\n\
    \       main.exe setup WORKLOAD";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let seed = Option.fold ~none:0 ~some:int_of_string (opt "--seed" args) in
  match args with
  | "setup" :: workload :: _ when List.mem workload Suite.names ->
    ignore (Suite.setup workload);
    (* the caller times process start to this line, then scales it by
       the host-speed factor printed next *)
    print_endline "ready";
    Printf.printf "%.9f\n" (Harness.calibration_nominal_ns /. Harness.calibrate ())
  | "run" :: workload :: _ when List.mem workload Suite.names ->
    let seconds =
      match opt "--seconds" args with Some s -> float_of_string s | None -> usage ()
    in
    run ~workload ~seed ~seconds ~traced:(List.mem "--traced" args)
      ~spans_dir:(opt "--spans-dir" args) ~out:(opt "--out" args)
  | _ -> usage ()
