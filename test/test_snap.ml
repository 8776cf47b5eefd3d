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

(* Offset of the first [bytes] in [image]. *)
let find_bytes image bytes =
  let n = String.length bytes in
  let rec find i =
    if i + n > String.length image then
      Alcotest.failf "%S not in the image" bytes
    else if String.sub image i n = bytes then i
    else find (i + 1)
  in
  find 0

(* Offset of the table's "L" tag in [image]. *)
let cost_table_at image = find_bytes image cost_table + 9

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

(* A meter's trail fields must agree with the machine they restore into:
   "logging" with the image's "checking" (a checked machine's CPUs keep
   a trail, no other CPU does), and "log" may hold no more entries than
   the CPU's trail has slots ([trail_depth] when checked, none
   otherwise).  The format error names the field. *)
let format_error s =
  match Snap.restore s with
  | (_ : Machine.t) -> None
  | exception Snap.Format_error msg -> Some msg

let rejected_at path s =
  match format_error s with
  | Some msg -> String.starts_with ~prefix:(path ^ ":") msg
  | None -> false

(* Offset of cpu0's trail length: the 4 bytes after the "log" field's
   "L" tag, then its entries. *)
let trail_at image = find_bytes image (be32 3 ^ "log" ^ "L") + 8

(* [image] with cpu0's trail of [n] entries counted as [count], with
   [entries] ahead of the ones it has. *)
let with_trail image ~n ~count entries =
  let at = trail_at image in
  check Alcotest.string "cpu0's trail length" (be32 n) (String.sub image at 4);
  String.sub image 0 at ^ be32 count ^ entries
  ^ String.sub image (at + 4) (String.length image - at - 4)

(* The first entry of cpu0's trail: "L", 2, a trap kind ("I" and 8
   bytes), then the text ("S", its length and its bytes). *)
let first_trail_entry image =
  let at = trail_at image + 4 in
  String.sub image at (19 + Int32.to_int (String.get_int32_be image (at + 15)))

let test_trail_fields () =
  let run ~check_invariants =
    let m =
      Machine.create ~check_invariants (Config.v ~guest_vhe:true Config.Hw_neve)
        Hyp.Host_hyp.Nested
    in
    Machine.boot m;
    Machine.hypercall m ~cpu:0;
    m
  in
  let checked = run ~check_invariants:true in
  let depth = Cpu.trail_depth in
  check Alcotest.int "the checked machine's cpu0 trail is full" depth
    (List.length (Cpu.trail_entries checked.Machine.cpus.(0)));
  let c = Snap.to_string checked and u = Snap.to_string (run ~check_invariants:false) in
  let logging v = splice ~before:(be32 7 ^ "logging" ^ "B") ~len:1 ~after:(be32 7 ^ "by_kind") v in
  check Alcotest.bool "checked image, a CPU without a trail: rejected" true
    (rejected_at "cpus[0].meter.logging" (logging c "\000"));
  check Alcotest.bool "unchecked image, a CPU with a trail: rejected" true
    (rejected_at "cpus[0].meter.logging" (logging u "\001"));
  let entry = first_trail_entry c in
  check Alcotest.bool "a trail one entry past its slots: rejected" true
    (rejected_at "cpus[0].meter.log" (with_trail c ~n:depth ~count:(depth + 1) entry));
  check Alcotest.bool "an unchecked CPU's one-entry trail: rejected" true
    (rejected_at "cpus[0].meter.log" (with_trail u ~n:0 ~count:1 entry));
  check Alcotest.(option string) "the unedited checked image restores" None (format_error c);
  check Alcotest.(option string) "the unedited unchecked image restores" None (format_error u)

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

let trails m =
  Array.to_list
    (Array.mapi
       (fun id c -> (Error.context_of_cpu ~id c).Error.fc_trail)
       m.Machine.cpus)

let test_checked_machine_migrates () =
  let m =
    ref
      (Machine.create
         ~fault_plan:(Plan.make ~seed:9 ~faults:6 ~horizon:1500)
         ~ncpus:2 (Config.v ~guest_vhe:true Config.Hw_neve)
         Hyp.Host_hyp.Nested)
  in
  Machine.boot !m;
  let bounded what m =
    List.iteri
      (fun cpu trail ->
        let n = List.length trail in
        if n > Cpu.trail_depth then
          Alcotest.failf "%s: cpu%d trail holds %d entries" what cpu n)
      (trails m)
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
    check
      Alcotest.(list (list string))
      (Printf.sprintf "migration %d: each destination trail is its source's"
         migration)
      (trails !m) (trails dst);
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
  check Alcotest.bool "both CPUs keep full trails" true
    (List.for_all (fun l -> List.length l = Cpu.trail_depth) (trails m));
  check Alcotest.(list (list string)) "each CPU's trail matches" (trails m) (trails m');
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

(* --- the decoder's error behaviour, pinned --- *)

(* The image's node syntax, parsed and printed by the test alone, for
   building images a writer never produces: reordered, duplicated and
   extra fields, and errors placed one after another.  A bool keeps its
   byte. *)
module Tree = struct
  type t = I of int64 | B of char | S of string | L of t list | R of (string * t) list

  let parse s =
    let pos = ref 0 in
    let u32 () =
      let v = Int32.to_int (String.get_int32_be s !pos) land 0xffff_ffff in
      pos := !pos + 4;
      v
    in
    let str () =
      let n = u32 () in
      let r = String.sub s !pos n in
      pos := !pos + n;
      r
    in
    let rec node () =
      let c = s.[!pos] in
      incr pos;
      match c with
      | 'I' ->
        let v = String.get_int64_be s !pos in
        pos := !pos + 8;
        I v
      | 'B' ->
        let b = s.[!pos] in
        incr pos;
        B b
      | 'S' -> S (str ())
      | 'L' -> L (List.init (u32 ()) (fun _ -> node ()))
      | 'R' ->
        R
          (List.init (u32 ()) (fun _ ->
               let name = str () in
               (name, node ())))
      | c -> Alcotest.failf "Tree.parse: tag %C" c
    in
    node ()

  let print t =
    let b = Buffer.create 65536 in
    let u32 n = Buffer.add_string b (be32 n) in
    let str s =
      u32 (String.length s);
      Buffer.add_string b s
    in
    let rec put = function
      | I v ->
        Buffer.add_char b 'I';
        Buffer.add_string b (be64 v)
      | B c ->
        Buffer.add_char b 'B';
        Buffer.add_char b c
      | S s ->
        Buffer.add_char b 'S';
        str s
      | L xs ->
        Buffer.add_char b 'L';
        u32 (List.length xs);
        List.iter put xs
      | R fs ->
        Buffer.add_char b 'R';
        u32 (List.length fs);
        List.iter
          (fun (n, x) ->
            str n;
            put x)
          fs
    in
    put t;
    Buffer.contents b

  let fields = function R fs -> fs | _ -> Alcotest.fail "Tree: not a record"
  let field name t = List.assoc name (fields t)

  (* [t] with the node at [path] (field names, or list indices as
     "[i]") replaced by [f] of it. *)
  let rec edit path f t =
    match (path, t) with
    | [], _ -> f t
    | p :: tl, L xs when p.[0] = '[' ->
      let i = int_of_string (String.sub p 1 (String.length p - 2)) in
      L (List.mapi (fun j x -> if j = i then edit tl f x else x) xs)
    | p :: tl, R fs -> R (List.map (fun (n, x) -> (n, if n = p then edit tl f x else x)) fs)
    | p :: _, _ -> Alcotest.failf "Tree.edit: no %s" p

  (* the record at [path] with its fields rearranged by [f] *)
  let fields_at path f = edit path (fun t -> R (f (fields t)))
end

(* What [Snap.restore] makes of [s]: "clean" and the digest of the
   restored machine's image, or the [Format_error] message. *)
let restore_outcome s =
  match Snap.restore s with
  | m -> "clean " ^ String.trim (image_digest (Snap.to_string m))
  | exception Snap.Format_error msg -> msg

(* Hand-built images: each is one edit of a checked 2-vCPU neve-vhe
   machine's image [t] (or of a 1-vCPU planned one, [p]), named by what
   it shows. *)
let hand_built ~checked ~planned =
  let open Tree in
  let t = parse checked and p = parse planned in
  let image = print in
  let cpu0 = [ "cpus"; "[0]" ] and cpu1 = [ "cpus"; "[1]" ] in
  let pstate = cpu0 @ [ "pstate" ] and meter = cpu0 @ [ "meter" ] in
  let set ?(of_ = t) path v = image (edit path (fun _ -> v) of_) in
  let change ?(of_ = t) path f = image (edit path f of_) in
  let fields_of path f = image (fields_at path f t) in
  let top f = image (R (f (fields t))) in
  (* field lists: one inserted before or after the field [name], moved,
     dropped *)
  let before name fv =
    List.concat_map (fun (n, x) -> if n = name then [ fv; (n, x) ] else [ (n, x) ])
  in
  let after name fv =
    List.concat_map (fun (n, x) -> if n = name then [ (n, x); fv ] else [ (n, x) ])
  in
  let remove name = List.filter (fun (n, _) -> n <> name) in
  let first name fs = List.filter (fun (n, _) -> n = name) fs @ remove name fs in
  let last name fs = remove name fs @ List.filter (fun (n, _) -> n = name) fs in
  let swap2 = function a :: b :: tl -> b :: a :: tl | l -> l in
  let drop_first = function L (_ :: tl) -> L tl | x -> x in
  let twice = function L [ x ] -> L [ x; x ] | x -> x in
  let bad_nzcv = set (pstate @ [ "nzcv" ]) (I 99L) in
  let len = String.length bad_nzcv in
  let table_ref alloc = R [ ("base", I 0L); ("vmid", I 0L); ("alloc", I alloc) ] in
  [ (* reordered, duplicated and extra fields: the first of a name is read *)
    ("unedited", image t);
    ("cpu0's pc and regs swapped", fields_of cpu0 swap2);
    ("cpu1's fields reversed", fields_of cpu1 List.rev);
    ("fault moved first", top (first "fault"));
    ("mem moved last", top (last "mem"));
    ("ncpus moved last", top (last "ncpus"));
    ("magic moved last", top (last "magic"));
    ("nzcv 5 ahead of nzcv", fields_of pstate (before "nzcv" ("nzcv", I 5L)));
    ("nzcv 99 after nzcv", fields_of pstate (after "nzcv" ("nzcv", I 99L)));
    ("nzcv 99 ahead of nzcv", fields_of pstate (before "nzcv" ("nzcv", I 99L)));
    ("el 2 after irq_masked", fields_of pstate (after "irq_masked" ("el", I 2L)));
    ("ncpus 1 ahead of ncpus", top (before "ncpus" ("ncpus", I 1L)));
    ("mem duplicated", top (after "mem" ("mem", field "mem" t)));
    ("a bad cpus list after cpus", top (after "cpus" ("cpus", L [ I 0L ])));
    ("mech 2 ahead of config's mech", fields_of [ "config" ] (before "mech" ("mech", I 2L)));
    ("an extra field mid-pstate", fields_of pstate (before "irq_masked" ("extra", L [])));
    ("an extra field ending pstate", fields_of pstate (fun fs -> fs @ [ ("extra", I 0L) ]));
    ("an extra field ending the machine", top (fun fs -> fs @ [ ("extra", L []) ]));
    ("hosts[1] without deferred_page", fields_of [ "hosts"; "[1]" ] (remove "deferred_page"));
    ("hosts[1]'s deferred_page a bool", set [ "hosts"; "[1]"; "deferred_page" ] (B '\000'));
    (* structural errors win over a semantic one before them *)
    ("nzcv 99, then a trailing byte", bad_nzcv ^ "\000");
    ("nzcv 99, then a truncated end", String.sub bad_nzcv 0 (len - 1));
    ( "nzcv 99, then a bad tag in hung",
      String.sub bad_nzcv 0 (len - 2) ^ "X" ^ String.sub bad_nzcv (len - 1) 1 );
    ( "nzcv 99, then an implausible length",
      "R" ^ be32 0x7fff_ffff ^ String.sub bad_nzcv 5 (len - 5) );
    (* missing fields and nodes of the wrong kind *)
    ("cpu1 without pc", fields_of cpu1 (remove "pc"));
    ("no mem", top (remove "mem"));
    ("no magic", top (remove "magic"));
    ("no fault", top (remove "fault"));
    ("an empty record", image (R []));
    ("a list", image (L []));
    ("cpu0's pc a bool", set (cpu0 @ [ "pc" ]) (B '\001'));
    ("cpu0's pstate a list", set pstate (L []));
    ("cpu0's el1_vectors byte 7", set (cpu0 @ [ "el1_vectors" ]) (B '\007'));
    ("cpu0's regs 30 words", change (cpu0 @ [ "regs" ]) drop_first);
    ("cpu0's regs[3] a string", set (cpu0 @ [ "regs"; "[3]" ]) (S "x"));
    ("cpu0's sysregs values[7] a bool", set (cpu0 @ [ "sysregs"; "values"; "[7]" ]) (B '\000'));
    ( "cpu0's dirty one byte short",
      change (cpu0 @ [ "sysregs"; "dirty" ]) (function
        | S x -> S (String.sub x 1 (String.length x - 1))
        | x -> x) );
    ("cpu0's logging a string", set (meter @ [ "logging" ]) (S ""));
    ( "cpu0's log[0] a bad kind and an int text",
      set (meter @ [ "log"; "[0]" ]) (L [ I (-1L); I 0L ]) );
    ("inv_states[1] three words", change [ "inv_states"; "[1]" ] drop_first);
    ("ghyps[1] empty", set [ "ghyps"; "[1]" ] (L []));
    ("ghyps[1] two entries", change [ "ghyps"; "[1]" ] twice);
    ("tamper_armed an int without a plan", set [ "ghyps"; "[0]"; "[0]"; "tamper_armed" ] (I 0L));
    (* values out of range *)
    ("hosts[0]'s exits with bit 63", set [ "hosts"; "[0]"; "exits" ] (I Int64.min_int));
    ("ncpus 3", set [ "ncpus" ] (I 3L));
    ("expose bits 0x7fff", set [ "expose" ] (I 0x7fffL));
    ("version 2", set [ "version" ] (I 2L));
    ("magic wrong", set [ "magic" ] (S "NEVE-SNAQ"));
    ("table entry 42 negative", set [ "table"; "[42]" ] (I (-1L)));
    ("irq_fault[0] code 99", set [ "irq_fault"; "[0]" ] (L [ I 99L ]));
    ("scenario Bogus", set [ "scenario" ] (S "Bogus"));
    ("scenario single_vm", set [ "scenario" ] (S "single-vm"));
    ("scenario code 1", set [ "scenario" ] (I 1L));
    ("config's mech a list", set [ "config"; "mech" ] (L []));
    ("config's mech 9", set [ "config"; "mech" ] (I 9L));
    ( "hosts[0] with a shadow naming allocator 3 of 1",
      set [ "hosts"; "[0]"; "shadow" ]
        (L
           [ R
               [ ("shadow", table_ref 3L); ("guest", table_ref 0L); ("host", table_ref 0L);
                 ("faults", I 0L); ("entries", L []); ("allocs", L [ I 0L ]) ] ]) );
    (* pairs and triples check their last element first *)
    ("mmio[0] a device", set [ "mem"; "mmio" ] (L [ L [ I 0L; I 8L; S "dev" ] ]));
    ( "mmio[0] a bad start and a bad name",
      set [ "mem"; "mmio" ] (L [ L [ B '\000'; I 0L; I 0L ] ]) );
    ("mmio[0] a pair", set [ "mem"; "mmio" ] (L [ L [ I 0L; I 0L ] ]));
    ( "words[0] a misaligned address and a bool value",
      set [ "mem"; "words"; "[0]" ] (L [ I 3L; B '\001' ]) );
    ("words[0] a misaligned address", change [ "mem"; "words"; "[0]"; "[0]" ] (fun _ -> I 3L));
    ( "words[1] a triple",
      change [ "mem"; "words"; "[1]" ] (function L [ a; v ] -> L [ a; v; v ] | x -> x) );
    ( "by_kind[0] a bad kind and a bool count",
      set (meter @ [ "by_kind"; "[0]" ]) (L [ I 99L; B '\000' ]) );
    ("by_kind[0] a bad kind", set (meter @ [ "by_kind"; "[0]"; "[0]" ]) (I 99L));
    ("by_kind[0] a string", set (meter @ [ "by_kind"; "[0]" ]) (S ""));
    (* the planned image's fault plan *)
    ("planned: unedited", image p);
    ("planned: tamper_armed an int", set ~of_:p [ "ghyps"; "[0]"; "[0]"; "tamper_armed" ] (I 0L));
    ( "planned: events[0] a bool count, a bad kind and an int flag",
      set ~of_:p [ "fault"; "[0]"; "events"; "[0]" ] (L [ B '\000'; I 99L; I 0L ]) );
    ( "planned: events[0] a bool count and a bad kind",
      change ~of_:p [ "fault"; "[0]"; "events"; "[0]" ] (function
        | L [ _; _; f ] -> L [ B '\000'; I 99L; f ]
        | x -> x) );
    ("planned: events[0] a pair", set ~of_:p [ "fault"; "[0]"; "events" ] (L [ L [ I 1L; I 0L ] ]));
    ("planned: fault two entries", change ~of_:p [ "fault" ] twice);
    ("planned: rng a string", set ~of_:p [ "fault"; "[0]"; "rng" ] (S "")) ]

(* The golden's sweep: single-byte flips of the checked image, xor 0x01
   and xor 0xff, every [error_stride] bytes. *)
let error_stride = 3

(* A message with its numbers as "#", for the sweep's summary. *)
let shape msg =
  let b = Buffer.create (String.length msg) in
  String.iteri
    (fun i c ->
      match c with
      | '0' .. '9' ->
        if i = 0 || not (match msg.[i - 1] with '0' .. '9' -> true | _ -> false) then
          Buffer.add_char b '#'
      | c -> Buffer.add_char b c)
    msg;
  Buffer.contents b

let restore_outcomes () =
  let neve_vhe = Config.v ~guest_vhe:true Config.Hw_neve in
  let m = Machine.create ~check_invariants:true ~ncpus:2 neve_vhe Hyp.Host_hyp.Nested in
  Machine.boot m;
  exercise m;
  let checked = Snap.to_string m in
  let p =
    Machine.create
      ~fault_plan:(Plan.make ~seed:5 ~faults:3 ~horizon:max_int)
      (Config.v Config.Hw_neve) Hyp.Host_hyp.Nested
  in
  Machine.boot p;
  let planned = Snap.to_string p in
  let b = Buffer.create 65536 in
  List.iter
    (fun (what, s) -> Printf.bprintf b "%s: %s\n" what (restore_outcome s))
    (hand_built ~checked ~planned);
  let clean = ref 0 and errors = ref 0 and h = ref 0xcbf29ce484222325L in
  let shapes = Hashtbl.create 64 in
  for i = 0 to (String.length checked - 1) / error_stride do
    let at = i * error_stride in
    List.iter
      (fun mask ->
        let f = Bytes.of_string checked in
        Bytes.set f at (Char.chr (Char.code checked.[at] lxor mask));
        let line =
          match Snap.restore (Bytes.to_string f) with
          | (_ : Machine.t) ->
            incr clean;
            "clean"
          | exception Snap.Format_error msg ->
            incr errors;
            let k = shape msg in
            Hashtbl.replace shapes k (1 + Option.value ~default:0 (Hashtbl.find_opt shapes k));
            msg
        in
        h := Test_template.fnv1a !h (Printf.sprintf "%d %d %s\n" at mask line))
      [ 0x01; 0xff ]
  done;
  Printf.bprintf b "sweep (every %d bytes of %d): %d clean, %d format errors, outcomes %016Lx\n"
    error_stride (String.length checked) !clean !errors !h;
  Hashtbl.fold (fun k n acc -> (n, k) :: acc) shapes []
  |> List.sort (fun (n, k) (n', k') -> if n <> n' then compare n' n else compare k k')
  |> List.iter (fun (n, k) -> Printf.bprintf b "%6d %s\n" n k);
  Buffer.contents b

let test_restore_outcomes () =
  let got = restore_outcomes () in
  let path = "snap-restore-outcomes.txt" in
  let want =
    match Test_template.golden path with
    | p -> Test_supervise.read_file p
    | exception _ -> ""
  in
  if got <> want then begin
    Out_channel.with_open_bin ("actual-" ^ path) (fun oc -> output_string oc got);
    Alcotest.failf "restore outcomes differ from test/golden/%s (actual written to actual-%s)"
      path path
  end

(* --- allocation budgets of the snapshot path --- *)

let words_during f =
  let w0 = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. w0)

(* Minor words of the snapshot path on a warm, checked 2-vCPU NEVE
   machine: an image, a restore beyond the [Machine.create] it starts
   with, and a live migration of an idle guest (pre-copy, image, restore
   and the staged-page oracle).  Readings, release and development
   profile (the image itself, 19 KB, is allocated in the major heap):

     to_string                    535      535
     restore beyond create      2,247    2,253
     Migrate.run, idle guest    6,627    6,651

   The budgets are the release readings plus 10%.  Building a node tree
   for every image and decoding into another cost 20,844, 19,798 and
   50,682 words (development profile). *)
let snapshot_budgets =
  [ ("to_string", 589); ("restore beyond create", 2_472); ("Migrate.run", 7_290) ]

let test_snapshot_budgets () =
  let config = Config.v Config.Hw_neve in
  let fresh () = Machine.create ~check_invariants:true ~ncpus:2 config Hyp.Host_hyp.Nested in
  let m = fresh () in
  Machine.boot m;
  exercise m;
  exercise m;
  let image = Snap.to_string m in
  let migrate () = ignore (Snap.Migrate.run ~workload:(fun _ ~round:_ -> ()) m) in
  ignore (Snap.restore image : Machine.t);
  migrate ();
  let runs = 4 in
  let per f = words_during (fun () -> for _ = 1 to runs do f () done) / runs in
  let encode = per (fun () -> ignore (Snap.to_string m : string)) in
  let create = per (fun () -> ignore (fresh () : Machine.t)) in
  let restore = per (fun () -> ignore (Snap.restore image : Machine.t)) - create in
  let readings =
    [ ("to_string", encode); ("restore beyond create", restore); ("Migrate.run", per migrate) ]
  in
  List.iter (fun (what, words) -> Printf.eprintf "%s: %d minor words\n%!" what words) readings;
  List.iter
    (fun (what, words) ->
      let budget = List.assoc what snapshot_budgets in
      if words > budget then Alcotest.failf "%s: %d minor words (budget %d)" what words budget)
    readings

(* --- the staged-page oracle --- *)

(* A store the dirty tracker never sees (the write observer detached
   around it) is a simulator bug the migration must report: a word on a
   page never staged, and a changed word on a staged one. *)
let test_oracle_catches_missed_writes () =
  let source () =
    let m = Scenario.make_arm (Scenario.Arm_nested (Config.v Config.Hw_neve)) in
    exercise m;
    m
  in
  let missed ~addr ~value =
    let src = source () in
    let workload m ~round =
      if round = 0 then begin
        let mem = m.Machine.mem in
        let observer = mem.Memory.on_write in
        mem.Memory.on_write <- None;
        Memory.write64 mem addr value;
        mem.Memory.on_write <- observer
      end
    in
    match Snap.Migrate.run ~workload src with
    | _ -> None
    | exception Error.Sim_fault (Error.Invariant_broken msg, _) -> Some msg
  in
  let prefix =
    "migration: pre-copied pages diverge from destination memory — dirty tracker missed a \
     write; "
  in
  check Alcotest.(option string) "a word on a page never staged"
    (Some (prefix ^ "destination word 0x78000000 never staged"))
    (missed ~addr:0x7800_0000L ~value:42L);
  let addr, value =
    match Memory.sorted_words (source ()).Machine.mem with
    | w :: _ -> w
    | [] -> Alcotest.fail "an empty memory"
  in
  check Alcotest.(option string) "a changed word on a staged page"
    (Some
       (Printf.sprintf "%sat 0x%Lx: staged %Lx, destination has 0x%Lx at 0x%Lx" prefix addr
          value (Int64.succ value) addr))
    (missed ~addr ~value:(Int64.succ value))

(* --- Snap.diff's renderings, pinned --- *)

(* What [Snap.diff] reports for machines that differ in one way each:
   a topology field, a counter, a bool, a string, a list's length, a
   memory word and a deferred-page slot. *)
let diff_renderings () =
  let neve = Config.v Config.Hw_neve in
  let nested ?ncpus ?expose config =
    let m = Machine.create ?ncpus ?expose config Hyp.Host_hyp.Nested in
    Machine.boot m;
    m
  in
  let twin ?(setup = ignore) f =
    let m = nested neve in
    setup m;
    let m' = Snap.restore (Snap.to_string m) in
    f m';
    (m, m')
  in
  let cases =
    [ ("identical", twin ignore);
      ("ncpus", (nested neve, nested ~ncpus:2 neve));
      ("config", (nested neve, nested (Config.v Config.Hw_v8_3)));
      ("scenario", (nested neve, Machine.create neve Hyp.Host_hyp.Single_vm));
      ("expose", (nested neve, nested ~expose:ooh_policy neve));
      ( "mmio",
        twin (fun m ->
            m.Machine.mem.Memory.mmio <- (0x10L, 0x8L, "extra") :: m.Machine.mem.Memory.mmio) );
      ("a hypercall", twin (fun m -> Machine.hypercall m ~cpu:0));
      ("el1_vectors", twin (fun m -> m.Machine.cpus.(0).Cpu.el1_vectors <- false));
      ( "a violation",
        twin (fun m ->
            m.Machine.violations <- [ Invariants.v m.Machine.cpus.(0) "pinned" "detail" ]) );
      ( "a violation's detail",
        let v m d = m.Machine.violations <- [ Invariants.v m.Machine.cpus.(0) "pinned" d ] in
        let m, m' = twin (fun m -> v m "b") in
        v m "a";
        (m, m') );
      ("a new memory word", twin (fun m -> Memory.write64 m.Machine.mem 0x7800_0000L 1L));
      ( "a changed memory word",
        twin (fun m ->
            match Memory.sorted_words m.Machine.mem with
            | (a, v) :: _ -> Memory.write64 m.Machine.mem a (Int64.succ v)
            | [] -> ()) );
      ( "a deferred-page slot",
        let spsr m v =
          Core.Deferred_page.write m.Machine.hosts.(0).Hyp.Host_hyp.page Arm.Sysreg.SPSR_EL1 v
        in
        twin ~setup:(fun m -> spsr m 0x3c5L) (fun m -> spsr m 0x3c4L) ) ]
  in
  String.concat ""
    (List.map
       (fun (what, (a, b)) ->
         Printf.sprintf "%s: %s\n" what
           (match Snap.diff a b with
            | None -> "none"
            | Some (path, detail) -> Printf.sprintf "%s: %s" path detail))
       cases)

let test_diff_renderings () =
  let got = diff_renderings () in
  let path = "snap-diffs.txt" in
  let want =
    match Test_template.golden path with
    | p -> Test_supervise.read_file p
    | exception _ -> ""
  in
  if got <> want then begin
    Out_channel.with_open_bin ("actual-" ^ path) (fun oc -> output_string oc got);
    Alcotest.failf "Snap.diff renderings differ from test/golden/%s (actual written to actual-%s)"
      path path
  end

(* --- domain-local scratch state ---

   A snapshot writes through its domain's image buffer and declarations
   ([Image.declared]), a migration stages pages in its domain's buffer
   ([Migrate.stage_key]), and trail texts come from its domain's
   rendered-instruction table ([Insn.rendered]).  Each is scratch: two
   different checked machines interleaved step by step on one domain
   must produce, each, the images, reports and texts it produces run
   alone. *)

let test_scratch_state_interleaved () =
  let fresh (config, ncpus) () =
    let m =
      Machine.create ~check_invariants:true ~ncpus config Hyp.Host_hyp.Nested
    in
    Machine.boot m;
    ref m
  in
  let trails m =
    String.concat "; "
      (List.concat_map
         (fun c ->
           List.map
             (fun (k, s) -> Cost.trap_kind_name k ^ " " ^ s)
             (Cpu.trail_entries c))
         (Array.to_list m.Machine.cpus))
  in
  (* one step of a machine's sequence, as text; a migration continues on
     the destination *)
  let steps =
    [ (fun m -> exercise !m; Snap.to_string !m);
      (fun m -> trails !m);
      (fun m ->
        let dst, r = Snap.Migrate.run ~workload:(migrate_workload 3) !m in
        m := dst;
        Format.asprintf "%a" Snap.Migrate.pp_report r);
      (fun m -> trails !m ^ Snap.to_string !m);
      (fun m -> exercise !m; trails !m) ]
  in
  let a = fresh (Config.v ~guest_vhe:true Config.Hw_neve, 2)
  and b = fresh (Config.v Config.Hw_v8_3, 1) in
  let alone make = let m = make () in List.map (fun step -> step m) steps in
  let alone_a = alone a and alone_b = alone b in
  let ma = a () and mb = b () in
  let inter_a, inter_b =
    List.split (List.map (fun step -> let x = step ma in (x, step mb)) steps)
  in
  check Alcotest.(list string) "neve-vhe interleaved == alone" alone_a inter_a;
  check Alcotest.(list string) "v8.3 interleaved == alone" alone_b inter_b;
  check Alcotest.bool "the trails are rendered" true
    (List.nth alone_a 1 <> "" && List.nth alone_b 1 <> "");
  check Alcotest.bool "the two machines' outputs differ" true
    (alone_a <> alone_b)

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
    Alcotest.test_case "a meter's trail fields must agree with checking" `Quick
      test_trail_fields;
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
    Alcotest.test_case "restore outcomes match the golden" `Quick
      test_restore_outcomes;
    Alcotest.test_case "the snapshot path stays within its allocation budgets" `Quick
      test_snapshot_budgets;
    Alcotest.test_case "the staged-page oracle catches a missed write" `Quick
      test_oracle_catches_missed_writes;
    Alcotest.test_case "Snap.diff renderings match the golden" `Quick
      test_diff_renderings;
    Alcotest.test_case "scratch state: two machines interleaved on a domain"
      `Quick test_scratch_state_interleaved;
  ]
