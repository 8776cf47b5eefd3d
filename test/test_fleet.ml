(* The fleet engine's contract, tested from both ends:

   - the generic shard engine (Shard.map) returns serial results
     whatever the shard count or scheduling, re-raises the lowest
     failing job's exception, and rejects a shard count OCaml cannot
     spawn before starting any domain;
   - per-machine seeds are position-independent: machine k is the same
     machine in an 8-member fleet and a 10,000-member fleet;
   - the fleet's aggregate JSON is byte-identical across shard counts
     (the determinism matrix), and per-machine results equal a serial
     loop's (the serial-vs-fleet equivalence oracle), traced class
     counters included;
   - the chaos, fuzz and recover campaigns produce byte-identical
     reports when fanned out over the same engine.

   A shard count is a domain count, so every case with [~shards] > 1
   exercises cross-domain execution (domain-local trace sinks, injection
   hooks, copy counters) even on a single-core host.  No case starts
   more than 8 domains. *)

open Alcotest

(* --- the shard engine itself --- *)

let test_derive_position_independent () =
  let a = Shard.derive ~seed:42 ~index:7 in
  check int64 "pure function of (seed, index)" a
    (Shard.derive ~seed:42 ~index:7);
  check bool "seed matters" false (a = Shard.derive ~seed:43 ~index:7);
  check bool "index matters" false (a = Shard.derive ~seed:42 ~index:8);
  (* no collisions across a healthy range (splitmix64 is bijective in
     the counter; this guards the seed folding) *)
  let seen = Hashtbl.create 1024 in
  for i = 0 to 999 do
    Hashtbl.replace seen (Shard.derive ~seed:42 ~index:i) ()
  done;
  check int "1000 distinct machine seeds" 1000 (Hashtbl.length seen);
  check bool "derive_int is non-negative" true
    (Shard.derive_int ~seed:42 ~index:123 >= 0)

let test_shard_map_matches_serial () =
  let f i = (i * i) + 1 in
  let serial = Array.init 100 f in
  List.iter
    (fun shards ->
      check (array int)
        (Printf.sprintf "shards=%d" shards)
        serial
        (Shard.map ~shards ~jobs:100 f))
    [ 1; 2; 3; 8 ];
  (* a count below 1 runs serially; more shards than jobs starts one
     domain per job *)
  check (array int) "shards=0" serial (Shard.map ~shards:0 ~jobs:100 f);
  check (array int) "shards=-3" serial (Shard.map ~shards:(-3) ~jobs:100 f);
  check (array int) "shards=8, jobs=3" (Array.init 3 f)
    (Shard.map ~shards:8 ~jobs:3 f);
  check (array int) "no jobs" [||] (Shard.map ~shards:4 ~jobs:0 f)

let test_shard_map_exception_lowest () =
  (* jobs 3, 10 and 17 fail.  Job 3 holds its domain until job 10 has
     failed, so job 10 runs on another domain and fails first; the
     surfaced error must still be job 3's.  The wait gives up after 10 s
     of CPU time, so an engine that ran everything on one domain fails
     the domain check below instead of hanging. *)
  let failed_10 = Atomic.make false in
  let domain_of = Array.make 20 (-1) in
  let job i =
    domain_of.(i) <- (Domain.self () :> int);
    if i = 3 then begin
      let give_up = Sys.time () +. 10.0 in
      while (not (Atomic.get failed_10)) && Sys.time () < give_up do
        Domain.cpu_relax ()
      done
    end;
    if i mod 7 = 3 then begin
      if i = 10 then Atomic.set failed_10 true;
      failwith (string_of_int i)
    end;
    i
  in
  (match Shard.map ~shards:4 ~jobs:20 job with
  | _ -> fail "expected a re-raised job exception"
  | exception Failure m -> check string "lowest failing job wins" "3" m);
  check bool "jobs 3 and 10 failed on different domains" true
    (domain_of.(3) <> domain_of.(10));
  check bool "job 3 failed after job 10" true (Atomic.get failed_10)

let test_shard_map_rejects_unspawnable () =
  let ran = Atomic.make false in
  let job i = Atomic.set ran true; i in
  check_raises "200 shards"
    (Invalid_argument "Shard.map: 200 shards (at most 127)")
    (fun () -> ignore (Shard.map ~shards:200 ~jobs:200 job));
  check_raises "128 shards"
    (Invalid_argument "Shard.map: 128 shards (at most 127)")
    (fun () -> ignore (Shard.map ~shards:128 ~jobs:2 job));
  check bool "no job ran" false (Atomic.get ran);
  (* the largest accepted count still starts only one domain per job *)
  check (array int) "127 shards, 2 jobs" [| 0; 1 |]
    (Shard.map ~shards:Shard.max_shards ~jobs:2 job)

(* --- the fleet determinism matrix --- *)

let small_ops = 12

let run_fleet ?(traced = false) ~shards ~n ~seed ~profile () =
  Fleet.run ~traced ~shards ~ops:small_ops ~n ~seed ~profile ()

let digests (t : Fleet.t) =
  Array.to_list (Array.map (fun r -> r.Fleet.r_digest) t.Fleet.results)

let test_fleet_matrix () =
  let base = run_fleet ~shards:1 ~n:24 ~seed:7 ~profile:"mixed" () in
  let base_json = Json.to_string (Fleet.json base) in
  List.iter
    (fun shards ->
      let t =
        run_fleet ~shards ~n:24 ~seed:7 ~profile:"mixed" ()
      in
      check string
        (Printf.sprintf "aggregate JSON, shards=%d" shards)
        base_json
        (Json.to_string (Fleet.json t));
      check (list int64)
        (Printf.sprintf "per-machine digests, shards=%d" shards)
        (digests base) (digests t))
    [ 2; 3; 4; 8 ];
  (* rerun in-process: no state leaks between campaigns *)
  check string "rerun is byte-identical" base_json
    (Json.to_string
       (Fleet.json (run_fleet ~shards:1 ~n:24 ~seed:7 ~profile:"mixed" ())))

let test_serial_vs_fleet_equivalence () =
  let n = 16 and seed = 11 and profile = "mixed" in
  let fleet =
    run_fleet ~shards:4 ~n ~seed ~profile ()
  in
  (* the serial oracle: the same 16 machines, run one by one on this
     domain with the same derived seeds *)
  let serial =
    Array.init n (fun i ->
        Fleet.run_spec ~ops:small_ops
          (Fleet.spec_of ~seed ~profile ~configs:Fleet.columns i))
  in
  Array.iteri
    (fun i (s : Fleet.result) ->
      let f = fleet.Fleet.results.(i) in
      let tag fmt = Printf.sprintf "machine %d: %s" i fmt in
      check int64 (tag "seed") s.Fleet.r_seed f.Fleet.r_seed;
      check int (tag "traps") s.Fleet.r_traps f.Fleet.r_traps;
      check int (tag "cycles") s.Fleet.r_cycles f.Fleet.r_cycles;
      check int (tag "retired insns") s.Fleet.r_insns f.Fleet.r_insns;
      check
        (list (pair string int))
        (tag "per-class trap sums")
        (List.map (fun (k, c) -> (Cost.trap_kind_name k, c)) s.Fleet.r_by_kind)
        (List.map (fun (k, c) -> (Cost.trap_kind_name k, c)) f.Fleet.r_by_kind);
      check int64 (tag "digest") s.Fleet.r_digest f.Fleet.r_digest)
    serial

let test_seed_position_independence_in_fleet () =
  (* growing the fleet must not move the machines that were already in
     it: machine k of an 8-fleet equals machine k of a 16-fleet, and the
     shard count is irrelevant to both *)
  let small = run_fleet ~shards:1 ~n:8 ~seed:3 ~profile:"mixed" () in
  let large = run_fleet ~shards:4 ~n:16 ~seed:3 ~profile:"mixed" () in
  for k = 0 to 7 do
    check int64
      (Printf.sprintf "machine %d unchanged by fleet growth" k)
      small.Fleet.results.(k).Fleet.r_digest
      large.Fleet.results.(k).Fleet.r_digest
  done

let test_traced_fleet_class_sums () =
  let t =
    run_fleet ~traced:true ~shards:3 ~n:10 ~seed:5
      ~profile:"hackbench" ()
  in
  check bool "aggregate trace_ok" true t.Fleet.agg.Fleet.a_trace_ok;
  Array.iter
    (fun (r : Fleet.result) ->
      check bool
        (Printf.sprintf "machine %d: tracer agrees with meters"
           r.Fleet.r_index)
        true r.Fleet.r_trace_ok;
      check int
        (Printf.sprintf "machine %d: class sums = traps" r.Fleet.r_index)
        r.Fleet.r_traps
        (List.fold_left (fun acc (_, c) -> acc + c) 0 r.Fleet.r_trace_classes))
    t.Fleet.results;
  (* and the traced fleet's meters equal the untraced fleet's: tracing
     is observation, not perturbation (digests differ by design — they
     cover the trace counters) *)
  let untraced =
    run_fleet ~shards:1 ~n:10 ~seed:5 ~profile:"hackbench" ()
  in
  let meters (ft : Fleet.t) =
    Array.to_list
      (Array.map
         (fun (r : Fleet.result) ->
           (r.Fleet.r_cycles, (r.Fleet.r_insns, r.Fleet.r_traps)))
         ft.Fleet.results)
  in
  check
    (list (pair int (pair int int)))
    "traced = untraced per-machine meters" (meters untraced) (meters t)

let test_fleet_rejects_unknown_profile () =
  check_raises "unknown profile"
    (Invalid_argument "Fleet: unknown profile \"no-such-workload\"")
    (fun () ->
      ignore (Fleet.run ~n:1 ~seed:0 ~profile:"no-such-workload" ()))

(* --- campaign fan-outs ride the same engine --- *)

let test_chaos_fanout_equals_serial () =
  let serial = Workloads.Chaos.run ~seed:13 ~traps:400 () in
  let sharded =
    Workloads.Chaos.run ~seed:13 ~traps:400 ~shards:4 ()
  in
  check string "chaos report is byte-identical"
    (Fmt.str "%a" Workloads.Chaos.pp_report serial)
    (Fmt.str "%a" Workloads.Chaos.pp_report sharded)

let test_fuzz_fanout_equals_serial () =
  let serial = Fuzz.Campaign.run ~seed:5 ~n:12 () in
  let sharded = Fuzz.Campaign.run ~seed:5 ~n:12 ~shards:4 () in
  check string "fuzz stats are byte-identical"
    (Json.to_string (Fuzz.Campaign.json serial))
    (Json.to_string (Fuzz.Campaign.json sharded))

let test_fuzz_fanout_rejects_cycle_budget () =
  check bool "sharded fuzz rejects --max-cycles" true
    (match Fuzz.Campaign.run ~seed:0 ~n:4 ~max_cycles:1 ~shards:2 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_recover_fanout_equals_serial () =
  let serial = Workloads.Recover.run ~seed:21 () in
  let sharded = Workloads.Recover.run ~seed:21 ~shards:5 () in
  check string "recover digest is identical"
    (Workloads.Recover.digest serial)
    (Workloads.Recover.digest sharded)

(* The published FNV-1a 32-bit test vectors: chaos and recover derive
   every per-configuration seed from this function. *)
let test_fnv1a_32_vectors () =
  List.iter
    (fun (s, h) ->
      check int (Printf.sprintf "fnv1a_32 %S" s) h (Shard.fnv1a_32 s))
    [ ("", 0x811c9dc5); ("a", 0xe40c292c); ("foobar", 0xbf9cf968) ]

let suite =
  [
    test_case "FNV-1a 32-bit test vectors" `Quick test_fnv1a_32_vectors;
    test_case "seed derivation is position-independent" `Quick
      test_derive_position_independent;
    test_case "Shard.map equals serial for every shard count" `Quick
      test_shard_map_matches_serial;
    test_case "Shard.map re-raises the lowest failing job" `Quick
      test_shard_map_exception_lowest;
    test_case "Shard.map rejects more shards than OCaml can spawn" `Quick
      test_shard_map_rejects_unspawnable;
    test_case "determinism matrix: shards 1/2/4/8 byte-identical" `Quick
      test_fleet_matrix;
    test_case "serial-vs-fleet equivalence oracle (16 machines)" `Quick
      test_serial_vs_fleet_equivalence;
    test_case "machine k survives fleet growth and resharding" `Quick
      test_seed_position_independence_in_fleet;
    test_case "traced fleet: class sums match meters on every domain" `Quick
      test_traced_fleet_class_sums;
    test_case "unknown profile is rejected" `Quick
      test_fleet_rejects_unknown_profile;
    test_case "chaos fan-out is byte-identical to serial" `Quick
      test_chaos_fanout_equals_serial;
    test_case "fuzz fan-out is byte-identical to serial" `Quick
      test_fuzz_fanout_equals_serial;
    test_case "sharded fuzz rejects a sim-cycle budget" `Quick
      test_fuzz_fanout_rejects_cycle_budget;
    test_case "recover fan-out is byte-identical to serial" `Slow
      test_recover_fanout_equals_serial;
  ]
