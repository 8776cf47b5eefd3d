(* Dirty-page tracking for pre-copy live migration.

   Models KVM's stage-2 write-protection log: a migration round begins by
   "write-protecting" guest memory ({!clear}); the first store that hits
   a protected page takes a stage-2 permission fault the host handles by
   marking the page dirty and dropping the protection, so subsequent
   stores to the same page run at full speed until the next round.

   The simulator executes guest stores directly against physical memory
   (stage-2 tables are walked only on explicit aborts), so the tracker
   hangs off the {!Arm.Memory} write observer rather than clearing PTE
   writable bits — the observable protocol is identical: one fault per
   page per round, routed through the caller's [on_fault] into the
   ordinary trap machinery (Cost.record_trap, hence Trace).  Pages are
   4 KB, the stage-2 granule. *)

module Memory = Arm.Memory

let page_base addr = Walk.page_base addr

type t = {
  mem : Memory.t;
  pages : (int64, unit) Hashtbl.t;  (* dirty page bases *)
  mutable write_faults : int;       (* protection faults taken, total *)
  mutable on_fault : int64 -> unit; (* first store to a clean page *)
}

(* Attach a tracker to a memory.  Every currently-backed page starts
   dirty — the first pre-copy round must transfer everything. *)
let attach ?(on_fault = fun _ -> ()) mem =
  let t = { mem; pages = Hashtbl.create 64; write_faults = 0; on_fault } in
  Memory.iter_nonzero_pages mem (fun pi ->
      Hashtbl.replace t.pages (Int64.shift_left (Int64.of_int pi) 12) ());
  mem.Memory.on_write <-
    Some
      (fun addr ->
        let page = page_base addr in
        if not (Hashtbl.mem t.pages page) then begin
          (* write-protection fault: log the page, lift the protection *)
          Hashtbl.replace t.pages page ();
          t.write_faults <- t.write_faults + 1;
          t.on_fault page
        end);
  t

let detach t = t.mem.Memory.on_write <- None

let dirty_count t = Hashtbl.length t.pages

(* Dirty page bases in ascending order (deterministic round reports). *)
let dirty_pages t =
  Hashtbl.fold (fun p () acc -> p :: acc) t.pages []
  |> List.sort Int64.compare

(* Begin a new round: re-protect everything.  Stores from here on fault
   once per page. *)
let clear t = Hashtbl.reset t.pages

let write_faults t = t.write_faults

(* The backed, nonzero words of one tracked page, ascending — what a
   round copies — written into [dst] from byte [at] as (address, value)
   pairs of native-endian words; returns the byte after them.  Reads that
   page only. *)
let page_words t page dst at =
  Memory.page_nonzero t.mem (Int64.to_int (Int64.shift_right_logical page 12)) dst at
