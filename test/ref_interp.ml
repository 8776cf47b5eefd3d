(* The reference execution loop the interpreter is tested against: fetch
   at PC, decode with the pure decoder (no caches), execute through
   [Cpu.exec], with [Interp.run]'s stop/budget/alignment order and its
   run-boundary trace events.  [Interp.run] must make exactly the same
   observations — registers, memory, cycles, traps and trace events. *)

module Cpu = Arm.Cpu
module Interp = Arm.Interp

let run ?(stop = fun _ -> false) (cpu : Cpu.t) ~entry ~max_insns =
  let meter = cpu.Cpu.meter in
  Cpu.set_pc cpu entry;
  if !Trace.on then
    Trace.emit ~cycles:meter.Cost.cycles ~tid:meter.Cost.tid ~a0:entry
      ~a1:(Int64.of_int max_insns) Trace.Run_begin;
  let rec step budget =
    if stop cpu then Interp.Stopped
    else if budget <= 0 then Interp.Limit
    else
      let pc = Cpu.pc cpu in
      if Int64.logand pc 3L <> 0L then Interp.Halted pc
      else
        let w = Arm.Xlate.fetch32 cpu.Cpu.mem ~base:pc 0 in
        if w = Arm.Xlate.halt_marker then Interp.Breakpoint
        else
          match Arm.Encode.decode w with
          | Arm.Encode.D_unknown _ -> Interp.Halted pc
          | Arm.Encode.D_insn insn ->
            Cpu.exec cpu insn;
            step (budget - 1)
  in
  let outcome = step max_insns in
  if !Trace.on then
    Trace.emit ~cycles:meter.Cost.cycles ~tid:meter.Cost.tid ~a0:(Cpu.pc cpu)
      ~detail:(Interp.outcome_to_string outcome) Trace.Run_end;
  outcome

(* Both loops, named, for tests that check a property under each. *)
let engines : (string * Fuzz.Diff.runner) list =
  [ ("Interp.run", Interp.run); ("reference", run) ]
