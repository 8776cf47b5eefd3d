(* Fetch-decode-execute over A64-encoded memory.

   Programs are stored as 32-bit words in simulated physical memory
   (packed two per 64-bit word); the interpreter fetches at PC, decodes
   and executes, with all the trap machinery applying.  This is what
   makes the binary-patching flavour of the paper's paravirtualization
   (Section 4) a real execution path: a guest hypervisor image can be
   patched word-for-word in memory and then run from memory.

   There is one execution engine: it runs through the per-CPU {!Xlate}
   superblock cache.  Straight-line code is formed into a block once per
   (block-entry PC, CPU), each distinct word decoded once while the
   decode cache keeps it, and replayed with two integer compares of
   side-exit validation per instruction.  Side exits return control to
   the dispatch loop whenever PC diverges from the straight line (a
   branch, an exception, a handler redirect), a store lands in the
   tracked code envelope (self-modifying code, the Section-4 patching
   path), the budget runs out, or [stop] fires.

   A block is a route memo keyed on a [Route_key.t]: before each
   route-sensitive op the block's key is checked with [Route_key.holds],
   and where it does not hold (a new block, or HCR_EL2, VNCR_EL2, the
   features, the NV2 mask, the OoH grant or the EL changed, mid-block
   too) the block's routed ops are routed afresh with [Cpu.route].  So
   every instruction executes through [Cpu.exec_local] /
   [Cpu.exec_with_action] with the action [Cpu.exec] would compute, and
   costs, trap entries and trace events are those of a
   fetch/decode/[Cpu.exec] loop with the same [stop]-check cadence; the
   test suite keeps such a loop as its reference.  The decoder never
   yields an immediate MSR, the one form [Cpu.exec] rewrites before
   routing. *)

type outcome =
  | Halted of int64   (* fetched an unencodable word at this address,
                         or the PC itself was misaligned *)
  | Breakpoint        (* executed the halt marker *)
  | Limit             (* instruction budget exhausted *)
  | Stopped           (* the [stop] predicate fired *)

let outcome_to_string = function
  | Halted a -> Printf.sprintf "halted at 0x%Lx" a
  | Breakpoint -> "breakpoint"
  | Limit -> "limit"
  | Stopped -> "stopped"

let pp_outcome ppf o = Fmt.string ppf (outcome_to_string o)

let halt_marker = Xlate.halt_marker

(* --- program memory --- *)

let fetch32 = Xlate.fetch32

(* Load an encoded program at [base]; appends the halt marker and grows
   the memory's tracked code envelope so later stores into the program
   invalidate any superblocks decoded from it.  The words are stored
   unboxed, so a load allocates the same few words whatever its length
   (the fuzzer loads a program on every column it runs). *)
let load mem ~base (words : int array) =
  let n = Array.length words in
  for i = 0 to n - 1 do
    Memory.store32 mem ~base (i * 4) words.(i)
  done;
  Memory.store32 mem ~base (n * 4) halt_marker;
  Memory.track_code mem ~lo:base ~hi:(Int64.add base (Int64.of_int ((n + 1) * 4)))

(* Assemble a program (encode each instruction) and load it. *)
let load_program mem ~base insns =
  load mem ~base (Array.of_list (List.map Encode.encode insns))

(* The dispatch loop is three top-level functions that pass what they
   share as arguments, so entering a block builds no closure, and the PC
   stays in the CPU's word file ([Xlate.lookup] and [Cpu.pc_is] read it
   unboxed): a warm dispatch allocates nothing. *)

(* A block's key no longer holds (or it was never routed): route its
   ops under the current state and take the cache's shared key. *)
let re_route cpu (blk : Xlate.block) =
  let ops = blk.Xlate.ops in
  for i = 0 to Array.length ops - 1 do
    match Array.unsafe_get ops i with
    | Xlate.Plain _ -> ()
    | Xlate.Routed r -> r.action <- Cpu.route cpu r.insn
  done;
  blk.Xlate.key <- Route_key.share (Xlate.shared cpu.Cpu.xlate) cpu

(* Enter the block at PC, stop and budget checked first. *)
let rec dispatch stop cpu budget =
  if stop cpu then Stopped
  else if budget <= 0 then Limit
  else begin
    let mem = cpu.Cpu.mem in
    let gen = Memory.code_gen mem in
    let blk = Xlate.lookup cpu.Cpu.xlate mem cpu.Cpu.regs Cpu.pc_offset ~gen in
    if Array.length blk.Xlate.ops = 0 then
      (* entry sits on the halt marker, an unknown word or a misaligned
         address; stop/budget were checked above, and the lookup
         validated the code generation *)
      match blk.Xlate.term with
      | Xlate.T_halt -> Breakpoint
      | Xlate.T_unknown -> Halted blk.Xlate.entry
      | Xlate.T_fallthrough | Xlate.T_branch -> assert false
    else exec_op stop cpu blk gen 0 budget
  end

(* Execute op [i] of [blk]; stop/budget already checked for it (by
   [dispatch] for op 0, by the previous op for the rest — once per
   instruction). *)
and exec_op stop cpu (blk : Xlate.block) gen i budget =
  (match Array.unsafe_get blk.Xlate.ops i with
   | Xlate.Plain insn -> Cpu.exec_local cpu insn
   | Xlate.Routed r ->
     if not (Route_key.holds blk.Xlate.key cpu) then re_route cpu blk;
     Cpu.exec_with_action cpu r.insn r.action);
  let budget = budget - 1 in
  let next = (i + 1) * 4 in
  (* Side exits: control left the straight line (branch taken,
     exception, handler redirect) or code was modified under our feet —
     back to the dispatcher, which re-validates. *)
  if
    (not (Cpu.pc_is cpu blk.Xlate.entry next))
    || Memory.code_gen cpu.Cpu.mem <> gen
  then dispatch stop cpu budget
  else if i + 1 >= Array.length blk.Xlate.ops then begin
    match blk.Xlate.term with
    | Xlate.T_branch | Xlate.T_fallthrough -> dispatch stop cpu budget
    | Xlate.T_halt ->
      if stop cpu then Stopped
      else if budget <= 0 then Limit
      else Breakpoint
    | Xlate.T_unknown ->
      if stop cpu then Stopped
      else if budget <= 0 then Limit
      else Halted (Int64.add blk.Xlate.entry (Int64.of_int next))
  end
  else if stop cpu then Stopped
  else if budget <= 0 then Limit
  else exec_op stop cpu blk gen (i + 1) budget

(* Run from [entry] until the halt marker, an unencodable word, a
   misaligned PC, or the instruction budget runs out.  Any non-positive
   budget is already exhausted (a negative one must not run unbounded). *)
let run ?(stop = fun _ -> false) (cpu : Cpu.t) ~entry ~max_insns =
  Cpu.set_pc cpu entry;
  if !Trace.on then
    Trace.emit ~cycles:cpu.Cpu.meter.Cost.cycles ~tid:cpu.Cpu.meter.Cost.tid ~a0:entry
      ~a1:(Int64.of_int max_insns) Trace.Run_begin;
  let outcome = dispatch stop cpu max_insns in
  if !Trace.on then
    Trace.emit ~cycles:cpu.Cpu.meter.Cost.cycles ~tid:cpu.Cpu.meter.Cost.tid ~a0:(Cpu.pc cpu)
      ~detail:(outcome_to_string outcome) Trace.Run_end;
  outcome

(* Disassemble a range of memory, for debugging and the examples.  Goes
   through the pure decoder directly: a debugging view must not mutate
   any CPU's execution caches. *)
let disassemble mem ~base ~count =
  List.init count (fun i ->
      let addr = Int64.add base (Int64.of_int (i * 4)) in
      let w = fetch32 mem ~base:addr 0 in
      let text =
        match Encode.decode w with
        | Encode.D_insn insn -> Insn.to_string insn
        | Encode.D_unknown w -> Printf.sprintf ".word 0x%08x" w
      in
      (addr, text))
