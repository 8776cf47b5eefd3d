(* Pre-copy live migration between two simulated hosts.

   The classic algorithm (Clark et al., NSDI'05) as KVM runs it: enable
   stage-2 dirty logging, stream every backed page while the guest keeps
   running, then iterate — each round re-protects memory and copies only
   the pages dirtied since the previous round — until the residual dirty
   set is small enough, then pause the guest and transfer the remainder
   plus all CPU/device state (the downtime).  The guest's stores drive
   the {!Mmu.Dirty} tracker; each first-store-per-page-per-round is a
   write-protection fault charged through the ordinary trap machinery
   (and hence visible in traces), so migrating a busy guest is visibly
   more expensive than migrating an idle one.  Under an OoH Dirty_log
   grant the same captures run trap-free (hardware dirty bits instead of
   faults); see the interface comment.

   The destination machine is built by {!Image.restore} from a snapshot
   taken at the stop point, so a migrated nested guest carries its guest
   hypervisor's virtual EL2 state — including an undrained NEVE deferred
   page — transparently.  All migration costs are charged to the source
   BEFORE the snapshot is taken: the destination's meters then equal the
   source's and [Image.diff src dst] is empty, which the caller should
   assert.

   The staged page copies double as a tracker-correctness oracle: the
   union of the last copy of every page must equal the destination's
   memory word-for-word.  If the dirty tracker ever missed a write, the
   stale staged page surfaces here as a simulator bug. *)

module Machine = Hyp.Machine
module Memory = Arm.Memory
module Cpu = Arm.Cpu

type report = {
  r_mech : string;           (* virtualization mechanism, "+ooh(dirty-log)"
                                suffixed when the capture path is exposed *)
  r_rounds : int;            (* pre-copy rounds run (round 0 = full copy) *)
  r_dirty_per_round : int list;  (* pages copied in each round, oldest first *)
  r_pages_total : int;       (* distinct backed pages at the stop point *)
  r_pages_copied : int;      (* page transfers, including re-copies *)
  r_write_faults : int;      (* first-write-per-page captures, both kinds *)
  r_trapped_captures : int;  (* captures that cost a full trap round trip *)
  r_exposed_captures : int;  (* trap-free captures under the Dirty_log grant *)
  r_precopy_traps : int;     (* traps taken while the guest still ran *)
  r_final_dirty : int;       (* residual pages moved during downtime *)
  r_converged : bool;        (* dirty set fell to the threshold in budget *)
  r_precopy_cycles : int;    (* elapsed while the guest still ran *)
  r_downtime_cycles : int;   (* stop-and-copy: residual pages + state *)
}

(* Mechanism label for the report: the config's name, suffixed when the
   machine's OoH grant set turns dirty logging trap-free. *)
let mech_label (m : Machine.t) =
  let base = Hyp.Config.name m.Machine.config in
  if Expose.Policy.mem m.Machine.expose Expose.Policy.Dirty_log then
    base ^ "+ooh(dirty-log)"
  else base

let per_round r total =
  if r.r_rounds = 0 then 0. else float_of_int total /. float_of_int r.r_rounds

let per_capture r total =
  if r.r_write_faults = 0 then 0.
  else float_of_int total /. float_of_int r.r_write_faults

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>mechanism       %s@,rounds          %d%s@,\
     pages           %d total, %d copied (%d re-copies)@,\
     dirty captures  %d (%d trapped, %d exposed trap-free)@,\
     dirty per round %s@,\
     per round       %.1f traps, %.1f cycles (pre-copy)@,\
     per capture     %.2f traps, %.1f cycles@,\
     precopy         %d cycles, %d traps@,\
     downtime        %d cycles (%d residual pages)@]"
    r.r_mech r.r_rounds
    (if r.r_converged then "" else " (budget exhausted before convergence)")
    r.r_pages_total r.r_pages_copied
    (max 0 (r.r_pages_copied - r.r_pages_total))
    r.r_write_faults r.r_trapped_captures r.r_exposed_captures
    (String.concat " " (List.map string_of_int r.r_dirty_per_round))
    (per_round r r.r_precopy_traps)
    (per_round r r.r_precopy_cycles)
    (per_capture r r.r_precopy_traps)
    (per_capture r r.r_precopy_cycles)
    r.r_precopy_cycles r.r_precopy_traps
    r.r_downtime_cycles r.r_final_dirty

(* A transfer-stream failure injected by {!resilient}; never escapes it. *)
exception Stream_failure of string

(* [run_attempt ~on_page_batch ~on_state_copy ~workload src] is one
   migration attempt: the hooks are failure-injection points ([run]
   passes no-ops) called before each page-batch transfer and before the
   final state copy; they may raise {!Stream_failure} to model the
   transfer stream dying mid-flight.  On any exception the dirty tracker
   is detached so the aborted source can be rolled back cleanly. *)
let run_attempt ?(threshold = 8) ?(max_rounds = 16)
    ~(on_page_batch : int -> unit) ~(on_state_copy : unit -> unit) ~workload
    (src : Machine.t) =
  let cpu = src.Machine.cpus.(0) in
  let meter = cpu.Cpu.meter in
  let table = meter.Cost.table in
  let start_cycles = meter.Cost.cycles in
  let start_traps = meter.Cost.traps in
  let exposed =
    Expose.Policy.mem src.Machine.expose Expose.Policy.Dirty_log
  in
  let exposed_captures = ref 0 in
  let tracker =
    Mmu.Dirty.attach
      ~on_fault:
        (if exposed then fun _page ->
           (* OoH Dirty_log grant: the hardware dirty-bit capture replaces
              the write-protection fault.  The store already paid its own
              execution cost; the trap round trip simply never happens —
              the vanished exit IS the mechanism.  Attribution only. *)
           incr exposed_captures;
           Cost.record_exposed ~detail:"dirty-log" meter
             Expose.Policy.Dirty_log
         else fun _page ->
           (* the stage-2 write-protection fault: full trap round trip *)
           Cpu.record_trap cpu ~detail:"dirty-log" Cost.Trap_mem_fault;
           Cost.charge meter
             (table.Cost.trap_entry + table.Cost.l0_mem_fault
            + table.Cost.trap_return))
      src.Machine.mem
  in
  try
  (* page base -> words as last streamed; Hashtbl.replace models the
     destination overwriting the stale copy *)
  let staged : (int64, (int64 * int64) list) Hashtbl.t = Hashtbl.create 256 in
  let copy_pages pages =
    on_page_batch (List.length pages);
    List.iter (fun p -> Hashtbl.replace staged p (Mmu.Dirty.page_words tracker p)) pages;
    Cost.charge meter (List.length pages * table.Cost.mig_page_copy)
  in
  let rec rounds round copied hist =
    let dirty = Mmu.Dirty.dirty_pages tracker in
    (* re-protect before streaming: anything stored while this round's
       copy is in flight lands in the next round's dirty set *)
    Mmu.Dirty.clear tracker;
    copy_pages dirty;
    let copied = copied + List.length dirty in
    let hist = List.length dirty :: hist in
    if round + 1 >= max_rounds then (round + 1, copied, hist)
    else begin
      workload src ~round;
      if Mmu.Dirty.dirty_count tracker <= threshold then (round + 1, copied, hist)
      else rounds (round + 1) copied hist
    end
  in
  let nrounds, copied, hist = rounds 0 0 [] in
  let final_dirty = Mmu.Dirty.dirty_pages tracker in
  let nfinal = List.length final_dirty in
  let converged = nfinal <= threshold in
  let precopy_cycles = meter.Cost.cycles - start_cycles in
  let precopy_traps = meter.Cost.traps - start_traps in
  (* Stop-and-copy: the guest is paused from here.  Residual pages and
     the machine-state transfer are charged to the source first, so the
     snapshot — and therefore the destination — already includes them. *)
  copy_pages final_dirty;
  on_state_copy ();
  Cost.charge meter table.Cost.mig_state_copy;
  Mmu.Dirty.detach tracker;
  let downtime = (nfinal * table.Cost.mig_page_copy) + table.Cost.mig_state_copy in
  let dst = Image.restore (Image.to_string src) in
  (* Tracker-correctness oracle: the staged stream must reproduce the
     destination's memory exactly. *)
  let staged_words =
    Hashtbl.fold (fun _ ws acc -> List.rev_append ws acc) staged []
    |> List.sort (fun (a, _) (b, _) -> Int64.compare a b)
  in
  let dst_words = Memory.sorted_words dst.Machine.mem in
  if staged_words <> dst_words then begin
    let rec first_bad = function
      | (a, v) :: _, (a', v') :: _ when a <> a' || v <> v' ->
        Printf.sprintf "at 0x%Lx: staged %Lx, destination has 0x%Lx at 0x%Lx" a v v' a'
      | _ :: s, _ :: d -> first_bad (s, d)
      | [], (a, _) :: _ -> Printf.sprintf "destination word 0x%Lx never staged" a
      | (a, _) :: _, [] -> Printf.sprintf "staged word 0x%Lx absent from destination" a
      | [], [] -> "length mismatch"
    in
    Fault.Error.sim_bug
      (Fault.Error.Invariant_broken
         ("migration: pre-copied pages diverge from destination memory — dirty tracker missed a write; "
         ^ first_bad (staged_words, dst_words)))
  end;
  let captures = Mmu.Dirty.write_faults tracker in
  let report =
    { r_mech = mech_label src;
      r_rounds = nrounds;
      r_dirty_per_round = List.rev hist;
      r_pages_total =
        List.length
          (List.sort_uniq Int64.compare (List.map (fun (a, _) -> Mmu.Walk.page_base a) dst_words));
      r_pages_copied = copied + nfinal;
      r_write_faults = captures;
      r_trapped_captures = captures - !exposed_captures;
      r_exposed_captures = !exposed_captures;
      r_precopy_traps = precopy_traps;
      r_final_dirty = nfinal;
      r_converged = converged;
      r_precopy_cycles = precopy_cycles;
      r_downtime_cycles = downtime }
  in
  (dst, report)
  with e ->
    Mmu.Dirty.detach tracker;
    raise e

(* [run ~workload src] migrates [src], returning the destination machine
   and the report.  [workload src ~round] stands in for the guest
   executing concurrently with round [round]'s copy stream; it runs
   between rounds and its stores feed the dirty log. *)
let run ?threshold ?max_rounds ~workload src =
  run_attempt ?threshold ?max_rounds ~on_page_batch:ignore
    ~on_state_copy:ignore ~workload src

(* --- self-healing migration: abort, roll back, back off, retry --- *)

type resilient_report = {
  rr_attempts : int;
  rr_aborts : (int * string) list;
  rr_backoffs : int list;
  rr_rollbacks_clean : bool;
  rr_rewound_traps : int;
  rr_report : report option;
}

let pp_resilient_report ppf r =
  Format.fprintf ppf
    "@[<v>attempts        %d (%d aborted%s)@,backoffs        %s cycles@,\
     rollbacks       %s@,%a@]"
    r.rr_attempts
    (List.length r.rr_aborts)
    (match r.rr_aborts with
     | [] -> ""
     | l ->
       ": "
       ^ String.concat ", "
           (List.map (fun (i, stage) -> Printf.sprintf "#%d %s" i stage) l))
    (match r.rr_backoffs with
     | [] -> "none"
     | l -> String.concat " " (List.map string_of_int l))
    (if r.rr_rollbacks_clean then
       Printf.sprintf "clean (source byte-identical, %d traps rewound)"
         r.rr_rewound_traps
     else "DIRTY — rollback diverged from the pre-attempt snapshot")
    (fun ppf -> function
      | Some rep -> pp_report ppf rep
      | None -> Format.fprintf ppf "no successful attempt (retries exhausted)")
    r.rr_report

(* [resilient ~fail_rate ~fail_seed ~workload src] migrates with a
   fault-injectable transfer stream: each page batch and the final state
   copy may fail with probability [fail_rate]% (drawn from a
   self-contained splitmix64 PRNG seeded with [fail_seed], so the whole
   failure/abort/retry history is byte-deterministic per seed).  An
   aborted attempt discards the staged destination, rolls the source
   back to its pre-attempt snapshot — verified byte-identical, the
   property test's [Snap.diff]-empty guarantee — waits out an
   exponential backoff (orchestrator wall time, tracked in the report,
   never charged to the rolled-back source) and retries, at most
   [max_retries] times.  Returns the (possibly restored) source, the
   destination when an attempt succeeded, and the retry history. *)
let resilient ?threshold ?max_rounds ?(max_retries = 4) ?(fail_rate = 0)
    ?(fail_seed = 7) ~workload (src : Machine.t) =
  let table = src.Machine.cpus.(0).Cpu.meter.Cost.table in
  let rng = Fault.Plan.Rng.make fail_seed in
  let failpoint stage =
    if fail_rate > 0 && Fault.Plan.Rng.int rng 100 < fail_rate then begin
      if !Trace.on then Trace.emit ~detail:stage Trace.Mig_abort;
      raise (Stream_failure stage)
    end
  in
  let rec go attempt src aborts backoffs clean rewound =
    let pre = Image.to_string src in
    match
      run_attempt ?threshold ?max_rounds
        ~on_page_batch:(fun _n -> failpoint "page-stream")
        ~on_state_copy:(fun () -> failpoint "state-copy")
        ~workload src
    with
    | dst, report ->
      ( src,
        Some dst,
        { rr_attempts = attempt;
          rr_aborts = List.rev aborts;
          rr_backoffs = List.rev backoffs;
          rr_rollbacks_clean = clean;
          rr_rewound_traps = rewound;
          rr_report = Some report } )
    | exception Stream_failure stage ->
      (* abort: the staged destination dies with the attempt; the source
         resumes from its pre-attempt snapshot.  The traps the failed
         attempt recorded stay in the trace but vanish from the restored
         meters — [rr_rewound_traps] keeps the books balanced for
         trace-vs-meter identity checks. *)
      let t_abort = Hyp.Machine.total_traps src in
      let src = Image.restore pre in
      let rewound = rewound + (t_abort - Hyp.Machine.total_traps src) in
      let clean = clean && String.equal (Image.to_string src) pre in
      let aborts = (attempt, stage) :: aborts in
      if attempt > max_retries then
        ( src,
          None,
          { rr_attempts = attempt;
            rr_aborts = List.rev aborts;
            rr_backoffs = List.rev backoffs;
            rr_rollbacks_clean = clean;
            rr_rewound_traps = rewound;
            rr_report = None } )
      else begin
        (* bounded exponential backoff before retrying, in simulated
           cycles of orchestrator time *)
        let backoff = table.Cost.mig_retry_backoff * (1 lsl (attempt - 1)) in
        if !Trace.on then
          Trace.emit ~a0:(Int64.of_int backoff) ~detail:stage Trace.Mig_retry;
        go (attempt + 1) src aborts (backoff :: backoffs) clean rewound
      end
  in
  go 1 src [] [] true 0
