(* Tests for the snapshot/restore and live-migration subsystem.

   The properties that matter, in rough order of strength:
   - determinism: saving the same machine twice is byte-identical;
   - round-trip: restore of a save diffs empty against the original,
     for every ARM configuration (VM plus the four nested mechanisms);
   - continuation: a restored machine and the original, driven through
     the same operations, stay byte-identical — including under a fault
     plan, whose PRNG cursor and fired-event ledger must survive;
   - the fuzzer's restore-equivalence oracle finds nothing on
     fixed-seed campaigns (snapshot-at-k/restore/resume is invisible);
   - migration converges, reports a plausible downtime, and leaves
     source and destination byte-identical. *)

module Cpu = Arm.Cpu
module Memory = Arm.Memory
module Config = Hyp.Config
module Machine = Hyp.Machine
module Vcpu = Hyp.Vcpu
module Scenario = Workloads.Scenario
module Plan = Fault.Plan
module Error = Fault.Error
module Invariants = Fault.Invariants

let check = Alcotest.check

(* The five ARM configurations of the paper's tables. *)
let arm_columns =
  ("VM", Scenario.Arm_vm)
  :: List.map
       (fun c -> (Config.name c, Scenario.Arm_nested c))
       Config.all_nested

(* A deterministic mix of guest-side operations touching every subsystem
   a snapshot must carry: traps, vGIC list registers, device emulation,
   plain computation. *)
let exercise m =
  Machine.hypercall m ~cpu:0;
  Machine.compute m ~cpu:0 ~insns:64;
  Machine.mmio_access m ~cpu:0 ~addr:0x0a00_0000L ~is_write:true;
  Machine.hypercall m ~cpu:0;
  if Machine.ncpus m > 1 then begin
    Machine.send_ipi m ~cpu:0 ~target:1 ~intid:5;
    match Machine.vm_ack m ~cpu:1 with
    | Some v -> ignore (Machine.vm_eoi m ~cpu:1 ~vintid:v : bool)
    | None -> ()
  end

let no_diff what d =
  check Alcotest.(option (pair string string)) what None d

(* --- determinism and round-trip, all five configurations --- *)

let test_save_deterministic () =
  List.iter
    (fun (name, col) ->
      let m = Scenario.make_arm col in
      exercise m;
      check Alcotest.bool
        (Printf.sprintf "two saves byte-identical (%s)" name)
        true
        (String.equal (Snap.to_string m) (Snap.to_string m)))
    arm_columns

let test_round_trip () =
  List.iter
    (fun (name, col) ->
      let m = Scenario.make_arm col in
      exercise m;
      let m' = Snap.restore (Snap.to_string m) in
      no_diff (Printf.sprintf "restore diffs empty (%s)" name)
        (Snap.diff m m');
      check Alcotest.bool
        (Printf.sprintf "restored snapshot byte-identical (%s)" name)
        true
        (String.equal (Snap.to_string m) (Snap.to_string m')))
    arm_columns

let test_continuation () =
  List.iter
    (fun (name, col) ->
      let m = Scenario.make_arm col in
      exercise m;
      let s = Snap.to_string m in
      (* original continues first, while the restored machine doesn't
         exist yet; then the copy replays the same operations *)
      exercise m;
      let m' = Snap.restore s in
      exercise m';
      no_diff
        (Printf.sprintf "same ops after restore, same machine (%s)" name)
        (Snap.diff m m'))
    arm_columns

let test_diff_names_field () =
  let m = Scenario.make_arm (List.assoc "VM" arm_columns) in
  let m' = Snap.restore (Snap.to_string m) in
  Machine.hypercall m' ~cpu:0;
  match Snap.diff m m' with
  | None -> Alcotest.fail "machines differ but diff is empty"
  | Some (path, _) ->
    check Alcotest.bool
      (Printf.sprintf "diff names a concrete field (got %s)" path)
      true (String.length path > 0)

let be32 n =
  String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff))

let be64 v =
  String.init 8 (fun i ->
      Char.chr
        (Int64.to_int
           (Int64.logand (Int64.shift_right_logical v (8 * (7 - i))) 0xffL)))

(* [image] with [len] bytes at the first offset where [before] ends and
   [after] starts [len] bytes later replaced by [by], in the canonical
   encoding. *)
let splice image ~before ~len ~after by =
  let nb = String.length before and na = String.length after in
  let rec find i =
    if i + nb + len + na > String.length image then
      Alcotest.fail "splice point not in the image"
    else if
      String.sub image i nb = before
      && String.sub image (i + nb + len) na = after
    then i + nb
    else find (i + 1)
  in
  let at = find 0 in
  String.sub image 0 at ^ by
  ^ String.sub image (at + len) (String.length image - at - len)

(* The machine's cost table: a list of 43 entries, each an "I" tag and
   8 payload bytes, trap_entry first. *)
let cost_table = be32 5 ^ "table" ^ "L" ^ be32 43

(* Offset of the table's "L" tag in [image]. *)
let cost_table_at image =
  let n = String.length cost_table in
  let rec find i =
    if i + n > String.length image then
      Alcotest.fail "cost table not in the image"
    else if String.sub image i n = cost_table then i + 9
    else find (i + 1)
  in
  find 0

(* [image] with cost-table entry [k] set to [v]. *)
let with_cost image k v =
  let at = cost_table_at image + 5 + (9 * k) + 1 in
  String.sub image 0 at ^ be64 v
  ^ String.sub image (at + 8) (String.length image - at - 8)

(* [image] with cpu0's empty saved-GPR frame list replaced by one frame
   of [words] words. *)
let with_frame image words =
  let word = "I" ^ String.make 7 '\000' ^ "\007" in
  let frame = "L" ^ be32 words ^ String.concat "" (List.init words (fun _ -> word)) in
  splice image ~before:(be32 10 ^ "saved_regs" ^ "L") ~len:4 ~after:""
    (be32 1 ^ frame)

let raises_format s =
  match Snap.restore s with
  | (_ : Machine.t) -> false
  | exception Snap.Format_error _ -> true

let test_malformed_input () =
  check Alcotest.bool "garbage rejected" true (raises_format "garbage");
  check Alcotest.bool "empty rejected" true (raises_format "");
  let m = Scenario.make_arm Scenario.Arm_vm in
  let s = Snap.to_string m in
  let truncated = String.sub s 0 (String.length s / 2) in
  check Alcotest.bool "truncated snapshot rejected" true
    (raises_format truncated);
  (* one saved-GPR frame of the wrong length spliced into a booted v8.3
     image: rejected at restore, not left to fail at the eret *)
  let s = Snap.to_string (Scenario.make_arm (Scenario.Arm_nested (Config.v Config.Hw_v8_3))) in
  List.iter
    (fun words ->
      check Alcotest.bool
        (Printf.sprintf "%d-word GPR frame rejected" words)
        true
        (raises_format (with_frame s words)))
    [ 0; 5; 40 ];
  check Alcotest.bool "a 31-word frame is accepted" false
    (raises_format (with_frame s Cpu.nregs))

(* Fields that size a loop or feed an assertion are range-checked on
   restore: a list-register count past the implemented ones used to spin
   the vGIC save loop, a negative cost tripped [Cost.charge], a cost of
   2^56 cycles wrapped the deferred page's populate charge negative, a
   short invariant-watermark entry was silently ignored, and an int
   field past 63 bits was truncated. *)
let test_out_of_range_fields () =
  let s =
    Snap.to_string
      (Scenario.make_arm
         (Scenario.Arm_nested (Config.v ~guest_vhe:true Config.Hw_neve)))
  in
  (* the field after [used_lrs] names the node: the host's Vcpu or the
     guest hypervisor *)
  List.iter
    (fun (node, next) ->
      List.iter
        (fun v ->
          check Alcotest.bool
            (Printf.sprintf "%s used_lrs = %Ld rejected" node v)
            true
            (raises_format
               (splice s ~before:(be32 8 ^ "used_lrs" ^ "I") ~len:8
                  ~after:(be32 (String.length next) ^ next) (be64 v))))
        [ Int64.shift_left 1L 56; -1L ])
    [ ("Vcpu", "vel1"); ("Guest_hyp", "cntvoff") ];
  (* the machine's cost table: 43 entries, trap_entry first *)
  check Alcotest.bool "negative cost-table entry rejected" true
    (raises_format
       (splice s ~before:(be32 5 ^ "table" ^ "L" ^ be32 43 ^ "I") ~len:8
          ~after:"I" (be64 (-1L))));
  for k = 0 to 42 do
    check Alcotest.bool
      (Printf.sprintf "cost-table entry %d = 2^56 rejected" k)
      true
      (raises_format (with_cost s k (Int64.shift_left 1L 56)))
  done;
  (* the cap itself is accepted, and charges without wrapping: entry 5 is
     mem_load, which the deferred page's populate multiplies *)
  let m = Snap.restore (with_cost s 5 (Int64.shift_left 1L 32)) in
  Machine.hypercall m ~cpu:0;
  (* vCPU 0's invariant watermarks cut from four words to three: the
     restored machine used to keep the fresh machine's watermarks *)
  check Alcotest.bool "3-word inv_states entry rejected" true
    (raises_format
       (splice s ~before:(be32 10 ^ "inv_states" ^ "L" ^ be32 2 ^ "L") ~len:13 ~after:""
          (be32 3)));
  (* bit 63 of host 0's exit count: a word outside OCaml's 63-bit int
     range used to restore truncated and re-save differently *)
  check Alcotest.bool "an int field with bit 63 set rejected" true
    (raises_format (splice s ~before:(be32 5 ^ "exits" ^ "I") ~len:1 ~after:"" "\x80"));
  check Alcotest.bool "the unedited image restores" false (raises_format s)

(* Hostile input: every proper prefix of a real image fails as a typed
   [Format_error], never as another exception escaping the decoder. *)
let test_truncated_prefixes () =
  let s = Snap.to_string (Scenario.make_arm Scenario.Arm_vm) in
  let len = String.length s in
  let lengths =
    List.init ((len + 12) / 13) (fun i -> i * 13)
    @ List.init 16 (fun i -> len - 16 + i)
  in
  List.iter
    (fun n ->
      match Snap.restore (String.sub s 0 n) with
      | (_ : Machine.t) -> Alcotest.failf "%d-byte prefix of %d accepted" n len
      | exception Snap.Format_error _ -> ()
      | exception e ->
        Alcotest.failf "%d-byte prefix of %d raised %s" n len
          (Printexc.to_string e))
    lengths

(* Hostile input: single-byte flips of five booted images (xor 0x01 and
   xor 0xff at a fixed stride) restore to a machine or fail as a typed
   [Format_error].  Unchecked, such flips escaped as an unaligned memory
   access, a [List.nth] on a negative enumeration code and a
   [Bad_topology] fault from an impossible [ncpus].  A machine that
   restores must then run a hypercall, an MMIO write and, when it has a
   second vCPU, an IPI from vCPU 0 to vCPU 1, each completing or aborting
   as a typed [Sim_fault]. *)
let flip_stride = 11

let run_restored_ops name at mask m =
  List.iter
    (fun b ->
      match Workloads.Micro.arm_op m b () with
      | () | (exception Error.Sim_fault _) -> ()
      | exception e ->
        Alcotest.failf "%s: byte %d xor 0x%02x: %s raised %s" name at mask
          (Workloads.Micro.name b) (Printexc.to_string e))
    Workloads.Micro.(
      if Machine.ncpus m >= 2 then [ Hypercall; Device_io; Virtual_ipi ]
      else [ Hypercall; Device_io ])

let test_flipped_bytes () =
  let booted ?ncpus config =
    let m = Machine.create ?ncpus config Hyp.Host_hyp.Nested in
    Machine.boot m;
    m
  in
  let neve_vhe = Config.v ~guest_vhe:true Config.Hw_neve in
  let images =
    [ ("neve-vhe", booted neve_vhe);
      ("v8.3", booted (Config.v Config.Hw_v8_3));
      ("neve-vhe, 2 vCPUs", booted ~ncpus:2 neve_vhe);
      ("v8.3, 2 vCPUs", booted ~ncpus:2 (Config.v Config.Hw_v8_3));
      ("VM", Scenario.make_arm Scenario.Arm_vm) ]
  in
  List.iter
    (fun (name, m) ->
      let s = Snap.to_string m in
      for i = 0 to (String.length s - 1) / flip_stride do
        let at = i * flip_stride in
        List.iter
          (fun mask ->
            let b = Bytes.of_string s in
            Bytes.set b at (Char.chr (Char.code s.[at] lxor mask));
            match Snap.restore (Bytes.to_string b) with
            | m -> run_restored_ops name at mask m
            | exception Snap.Format_error _ -> ()
            | exception e ->
              Alcotest.failf "%s: byte %d xor 0x%02x raised %s" name at mask
                (Printexc.to_string e))
          [ 0x01; 0xff ]
      done;
      (* every byte of the cost table (its tag, length and 43 entries),
         and the restored machine must still run a hypercall: costs feed
         charges, not just the decoder *)
      let table_at = cost_table_at s in
      for at = table_at to table_at + 4 + (43 * 9) do
        List.iter
          (fun mask ->
            let b = Bytes.of_string s in
            Bytes.set b at (Char.chr (Char.code s.[at] lxor mask));
            match Snap.restore (Bytes.to_string b) with
            | exception Snap.Format_error _ -> ()
            | m -> (
                match Machine.hypercall m ~cpu:0 with
                | () | (exception Error.Sim_fault _) -> ()
                | exception e ->
                  Alcotest.failf
                    "%s: table byte %d xor 0x%02x: hypercall raised %s" name
                    at mask (Printexc.to_string e))
            | exception e ->
              Alcotest.failf "%s: table byte %d xor 0x%02x raised %s" name at
                mask (Printexc.to_string e))
          [ 0x01; 0xff ]
      done)
    images

(* --- the image format, pinned by digests of the images the boxed
   register file wrote --- *)

let image_digest s =
  Printf.sprintf "%016Lx\n" (Test_template.fnv1a 0xcbf29ce484222325L s)

let test_golden_images () =
  let m =
    Scenario.make_arm
      (Scenario.Arm_nested (Config.v ~guest_vhe:true Config.Hw_neve))
  in
  check Alcotest.string "booted neve-vhe image"
    (Test_supervise.read_file (Test_template.golden "snap-neve-vhe.fnv"))
    (image_digest (Snap.to_string m));
  (* a v8.3 machine saved inside the host's handler of its first
     hypercall trap, with a distinct value in every guest register *)
  let m = Scenario.make_arm (Scenario.Arm_nested (Config.v Config.Hw_v8_3)) in
  let cpu = m.Machine.cpus.(0) in
  for n = 0 to Cpu.nregs - 1 do
    Cpu.set_reg cpu n (Int64.of_int (0x1000 + (n * 0x111)))
  done;
  let guest = Cpu.gprs cpu in
  let handler = Option.get cpu.Cpu.el2_handler in
  let saved = ref None in
  cpu.Cpu.el2_handler <-
    Some
      (fun c e ->
        if !saved = None then
          saved := Some (Snap.to_string m, c.Cpu.depth, Cpu.peek_sysreg c Arm.Sysreg.ELR_EL2);
        handler c e);
  Machine.hypercall m ~cpu:0;
  cpu.Cpu.el2_handler <- Some handler;
  let image, depth, elr =
    match !saved with Some x -> x | None -> Alcotest.fail "no trap taken"
  in
  check Alcotest.bool "saved with a frame live" true (depth >= 1);
  check Alcotest.string "v8.3 image saved in the EL2 handler"
    (Test_supervise.read_file (Test_template.golden "snap-v83-in-handler.fnv"))
    (image_digest image);
  let m' = Snap.restore image in
  let cpu' = m'.Machine.cpus.(0) in
  check Alcotest.int "restored frame depth" depth cpu'.Cpu.depth;
  Cpu.do_eret cpu';
  check Alcotest.int "eret pops a frame" (depth - 1) cpu'.Cpu.depth;
  check Alcotest.string "eret gives back the guest's registers" guest
    (Cpu.gprs cpu');
  check Alcotest.int64 "eret resumes at ELR" elr (Cpu.pc cpu')

(* --- satellite: Machine.create rejects impossible topologies --- *)

let test_ncpus_validation () =
  let config = Config.v Config.Hw_neve in
  let bad n =
    match Machine.create ~ncpus:n config Hyp.Host_hyp.Nested with
    | (_ : Machine.t) -> false
    | exception Error.Sim_fault (Error.Bad_topology _, _) -> true
  in
  check Alcotest.bool "ncpus = 0 rejected" true (bad 0);
  check Alcotest.bool "ncpus < 0 rejected" true (bad (-3));
  check Alcotest.bool "ncpus beyond the region budget rejected" true
    (bad (Vcpu.max_vcpus + 1));
  let m = Machine.create ~ncpus:2 config Hyp.Host_hyp.Nested in
  check Alcotest.int "in-budget ncpus builds" 2 (Machine.ncpus m)

(* --- fault plan and recorded violations survive the round-trip --- *)

let test_fault_plan_round_trip () =
  let config = Config.v Config.Hw_neve in
  let mk () =
    Machine.create
      ~fault_plan:(Plan.make ~seed:42 ~faults:12 ~horizon:200)
      ~ncpus:1 config Hyp.Host_hyp.Nested
  in
  let m = mk () in
  Machine.boot m;
  for _ = 1 to 8 do
    Machine.hypercall m ~cpu:0;
    Machine.data_abort m ~cpu:0 ~addr:0x6100_0000L ~is_write:true
  done;
  (* make sure there is state worth preserving *)
  (match m.Machine.fault with
  | Some p ->
    check Alcotest.bool "plan fired events before the snapshot" true
      (Plan.injected p <> [])
  | None -> Alcotest.fail "machine lost its fault plan");
  m.Machine.violations <-
    Invariants.v m.Machine.cpus.(0) "pinned" "synthetic violation"
    :: m.Machine.violations;
  m.Machine.violation_count <- m.Machine.violation_count + 1;
  let s = Snap.to_string m in
  (* original continues before the copy exists (the stage-2 injection
     hook is a process-wide single-machine assumption) *)
  for _ = 1 to 4 do
    Machine.hypercall m ~cpu:0;
    Machine.data_abort m ~cpu:0 ~addr:0x6100_0000L ~is_write:true
  done;
  let m' = Snap.restore s in
  (match m'.Machine.fault with
  | Some p' ->
    check Alcotest.bool "fired-event ledger restored" true
      (Plan.injected p' <> [])
  | None -> Alcotest.fail "restored machine lost its fault plan");
  check Alcotest.bool "synthetic violation restored" true
    (List.exists
       (fun v -> v.Invariants.v_name = "pinned")
       m'.Machine.violations);
  for _ = 1 to 4 do
    Machine.hypercall m' ~cpu:0;
    Machine.data_abort m' ~cpu:0 ~addr:0x6100_0000L ~is_write:true
  done;
  no_diff "same faults fire after restore, machines identical"
    (Snap.diff m m')

(* --- a checked machine's bounded trap trail across migrations --- *)

(* Two vCPUs trapping on both sides: a hypercall, an MMIO store and an
   IPI from each.  A vCPU the fault plan hung is recovered, as serve's
   watchdog does. *)
let checked_ops m =
  for i = 0 to 5 do
    Test_fault.trail_op m i
  done;
  for cpu = 0 to 1 do
    if Machine.is_hung m ~cpu then Machine.clear_hung m ~cpu
  done

let logs m =
  Array.to_list (Array.map (fun c -> c.Cpu.meter.Cost.log) m.Machine.cpus)

let test_checked_machine_migrates () =
  let m =
    ref
      (Machine.create
         ~fault_plan:(Plan.make ~seed:9 ~faults:6 ~horizon:1500)
         ~ncpus:2 (Config.v ~guest_vhe:true Config.Hw_neve)
         Hyp.Host_hyp.Nested)
  in
  Machine.boot !m;
  let bound = 2 * Error.trail_depth in
  let bounded what m =
    List.iteri
      (fun cpu log ->
        let n = List.length log in
        if n > bound then
          Alcotest.failf "%s: cpu%d log holds %d entries" what cpu n)
      (logs m)
  in
  for migration = 1 to 2 do
    for _ = 1 to 10 do
      checked_ops !m
    done;
    bounded (Printf.sprintf "before migration %d" migration) !m;
    let dst, _ = Snap.Migrate.run ~workload:(fun _ ~round:_ -> ()) !m in
    no_diff
      (Printf.sprintf "migration %d: source and destination identical"
         migration)
      (Snap.diff !m dst);
    bounded (Printf.sprintf "destination of migration %d" migration) dst;
    m := dst
  done;
  let m = !m in
  check Alcotest.bool "the fault plan fired" true
    (match m.Machine.fault with Some p -> Plan.injected p <> [] | None -> false);
  let s = Snap.to_string m in
  (* the uninterrupted run goes first: the stage-2 injection hook follows
     the most recently built machine *)
  for _ = 1 to 6 do
    checked_ops m
  done;
  let m' = Snap.restore s in
  for _ = 1 to 6 do
    checked_ops m'
  done;
  no_diff "snapshot, restore, resume equals the uninterrupted run"
    (Snap.diff m m');
  check Alcotest.bool "both CPUs logged traps" true
    (List.for_all (fun l -> l <> []) (logs m));
  check Alcotest.bool "each meter's log matches" true (logs m = logs m');
  bounded "after resume" m'

(* --- the fuzzer's ninth column --- *)

let test_fuzz_restore_equivalence () =
  (* fixed-seed programs through all eight columns, each also run as
     snapshot-at-k/restore/resume; any difference is a divergence *)
  List.iter
    (fun seed ->
      let stats = Fuzz.Campaign.run ~snap_oracle:true ~seed ~n:12 () in
      check Alcotest.int
        (Printf.sprintf "no divergences with the snapshot oracle (seed=%d)"
           seed)
        0
        (Fuzz.Campaign.divergence_count stats))
    [ 7; 1234 ]

(* --- live migration --- *)

let migrate_workload writes m ~round =
  (* early rounds: a busy guest — traps plus fresh page dirtying; later
     rounds: idle, so the dirty set converges *)
  if round < 2 then begin
    Machine.hypercall m ~cpu:0;
    for i = 0 to writes - 1 do
      Memory.write64 m.Machine.mem
        (Int64.of_int (0x7800_0000 + (4096 * i) + (8 * round)))
        (Int64.of_int (round + i + 1))
    done
  end

let test_migrate_nested_neve_vhe () =
  let config = Config.v ~guest_vhe:true Config.Hw_neve in
  let src = Scenario.make_arm (Scenario.Arm_nested config) in
  exercise src;
  let dst, r = Snap.Migrate.run ~workload:(migrate_workload 6) src in
  check Alcotest.bool "migration converged" true r.Snap.Migrate.r_converged;
  check Alcotest.bool "ran at least two pre-copy rounds" true
    (r.Snap.Migrate.r_rounds >= 2);
  check Alcotest.bool "stop-and-copy downtime is positive" true
    (r.Snap.Migrate.r_downtime_cycles > 0);
  check Alcotest.bool "downtime is a small fraction of precopy" true
    (r.Snap.Migrate.r_downtime_cycles < r.Snap.Migrate.r_precopy_cycles);
  check Alcotest.bool "dirty logging took write faults" true
    (r.Snap.Migrate.r_write_faults > 0);
  no_diff "source and destination byte-identical after migration"
    (Snap.diff src dst);
  (* the destination is live: it keeps executing like the original *)
  Machine.hypercall src ~cpu:0;
  Machine.hypercall dst ~cpu:0;
  no_diff "destination executes on identically" (Snap.diff src dst)

let test_migrate_idle_guest_single_round () =
  let src = Scenario.make_arm Scenario.Arm_vm in
  exercise src;
  let _dst, r =
    Snap.Migrate.run ~workload:(fun _ ~round:_ -> ()) src
  in
  check Alcotest.bool "idle guest converges immediately" true
    (r.Snap.Migrate.r_converged && r.Snap.Migrate.r_rounds = 1);
  check Alcotest.int "idle guest takes no write faults" 0
    r.Snap.Migrate.r_write_faults;
  check Alcotest.int "every page copied exactly once" r.Snap.Migrate.r_pages_total
    r.Snap.Migrate.r_pages_copied

(* --- OoH exposure policy across snapshot and migration --- *)

let ooh_policy =
  Expose.Policy.of_list [ Expose.Policy.Dirty_log; Expose.Policy.Gic_lrs ]

let test_expose_policy_round_trip () =
  (* a granted machine snapshots, restores and continues bit-identically,
     and the grant itself survives the image *)
  let config = Config.v Config.Hw_neve in
  let m =
    Scenario.make_arm ~expose:ooh_policy (Scenario.Arm_nested config)
  in
  exercise m;
  let s = Snap.to_string m in
  let m' = Snap.restore s in
  check Alcotest.bool "grant survives restore" true
    (Expose.Policy.equal m.Machine.expose m'.Machine.expose);
  no_diff "granted machine restore diffs empty" (Snap.diff m m');
  exercise m;
  exercise m';
  no_diff "granted machine continues identically" (Snap.diff m m')

let test_migrate_expose_dirty_log () =
  (* the PR's headline: under a Dirty_log grant the same pre-copy takes
     strictly fewer traps per round than both baselines, with every
     capture trap-free and the destination still byte-identical *)
  let precopy_traps expose config =
    let src = Scenario.make_arm ~expose (Scenario.Arm_nested config) in
    exercise src;
    let dst, r = Snap.Migrate.run ~workload:(migrate_workload 6) src in
    no_diff "source and destination byte-identical" (Snap.diff src dst);
    check Alcotest.bool "migration converged" true r.Snap.Migrate.r_converged;
    r
  in
  let grant = Expose.Policy.of_list [ Expose.Policy.Dirty_log ] in
  let v83 = precopy_traps Expose.Policy.none (Config.v Config.Hw_v8_3) in
  let neve = precopy_traps Expose.Policy.none (Config.v Config.Hw_neve) in
  let ooh = precopy_traps grant (Config.v Config.Hw_neve) in
  check Alcotest.int "every capture trap-free under the grant" 0
    ooh.Snap.Migrate.r_trapped_captures;
  check Alcotest.bool "grant captured the same dirty pages" true
    (ooh.Snap.Migrate.r_exposed_captures > 0
    && ooh.Snap.Migrate.r_write_faults = neve.Snap.Migrate.r_write_faults);
  let per_round (r : Snap.Migrate.report) =
    Snap.Migrate.per_round r r.Snap.Migrate.r_precopy_traps
  in
  check Alcotest.bool "strictly fewer traps/round than NEVE" true
    (per_round ooh < per_round neve);
  check Alcotest.bool "strictly fewer traps/round than v8.3" true
    (per_round ooh < per_round v83);
  check Alcotest.bool "mechanism label names the grant" true
    (ooh.Snap.Migrate.r_mech <> neve.Snap.Migrate.r_mech)

let suite =
  [
    Alcotest.test_case "save is byte-deterministic" `Quick
      test_save_deterministic;
    Alcotest.test_case "restore round-trips all five ARM configs" `Quick
      test_round_trip;
    Alcotest.test_case "restored machine continues identically" `Quick
      test_continuation;
    Alcotest.test_case "diff names the first diverging field" `Quick
      test_diff_names_field;
    Alcotest.test_case "malformed snapshots are rejected" `Quick
      test_malformed_input;
    Alcotest.test_case "out-of-range used_lrs and costs raise Format_error"
      `Quick test_out_of_range_fields;
    Alcotest.test_case "every truncated prefix raises Format_error" `Quick
      test_truncated_prefixes;
    Alcotest.test_case "flipped image bytes restore or raise Format_error"
      `Quick test_flipped_bytes;
    Alcotest.test_case "image bytes match the recorded digests" `Quick
      test_golden_images;
    Alcotest.test_case "Machine.create rejects impossible ncpus" `Quick
      test_ncpus_validation;
    Alcotest.test_case "fault plan and violations survive restore" `Quick
      test_fault_plan_round_trip;
    Alcotest.test_case "checked 2-vCPU machine migrates, trail bounded"
      `Quick test_checked_machine_migrates;
    Alcotest.test_case "fuzz snapshot oracle finds nothing (fixed seeds)"
      `Quick test_fuzz_restore_equivalence;
    Alcotest.test_case "pre-copy migration of a nested NEVE+VHE guest"
      `Quick test_migrate_nested_neve_vhe;
    Alcotest.test_case "idle guest migrates in one round" `Quick
      test_migrate_idle_guest_single_round;
    Alcotest.test_case "OoH grant survives snapshot round-trip" `Quick
      test_expose_policy_round_trip;
    Alcotest.test_case "OoH dirty-log beats both baselines per round"
      `Quick test_migrate_expose_dirty_log;
  ]
