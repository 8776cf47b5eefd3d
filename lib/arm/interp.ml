(* Fetch-decode-execute over A64-encoded memory.

   Programs are stored as 32-bit words in simulated physical memory
   (packed two per 64-bit word); the interpreter fetches at PC, decodes
   and executes, with all the trap machinery applying.  This is what
   makes the binary-patching flavour of the paper's paravirtualization
   (Section 4) a real execution path: a guest hypervisor image can be
   patched word-for-word in memory and then run from memory.

   There is one execution engine: it runs through the per-CPU {!Xlate}
   superblock cache.  Straight-line code is decoded and route-classified
   once per (block-entry PC, CPU) and replayed with two integer compares
   of side-exit validation per instruction.  Side exits return control
   to the dispatch loop whenever PC diverges from the straight line (a
   branch, an exception, a handler redirect), a store lands in the
   tracked code envelope (self-modifying code, the Section-4 patching
   path), route state changes mid-block (HCR_EL2/VNCR_EL2/EL/features),
   the budget runs out, or [stop] fires.

   Every instruction executes through [Cpu.exec_local] /
   [Cpu.exec_with_action] with the routing result [Cpu.exec] would
   compute (cached actions are validated against the exact route
   inputs), so costs, trap entries and trace events are those of a
   fetch/decode/[Cpu.exec] loop with the same [stop]-check cadence; the
   test suite keeps such a loop as its reference. *)

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

(* A PC an instruction cannot be fetched from: A64 instructions are
   4-byte aligned.  [fetch32] would silently read the containing aligned
   word and run a skewed stream; the run loop turns this into a
   deterministic alignment halt instead. *)
let misaligned pc = Int64.logand pc 3L <> 0L

(* Run from [entry] until the halt marker, an unencodable word, a
   misaligned PC, or the instruction budget runs out.  Any non-positive
   budget is already exhausted (a negative one must not run unbounded). *)
let run ?(stop = fun _ -> false) (cpu : Cpu.t) ~entry ~max_insns =
  Cpu.set_pc cpu entry;
  if !Trace.on then
    Trace.emit ~cycles:cpu.Cpu.meter.Cost.cycles ~tid:cpu.Cpu.meter.Cost.tid ~a0:entry
      ~a1:(Int64.of_int max_insns) Trace.Run_begin;
  let mem = cpu.Cpu.mem in
  let xc = cpu.Cpu.xlate in
  (* Route-input validation for cached actions: the exact inputs of
     [Trap_rules.route].  HCR/VNCR are read from the register file (not
     the decoded-HCR cache, which refreshes lazily). *)
  let sysregs = cpu.Cpu.sysregs in
  let key_ok (blk : Xlate.block) =
    blk.Xlate.k_el == cpu.Cpu.pstate.Pstate.el
    && blk.Xlate.k_hcr = Sysreg_file.read sysregs Sysreg.HCR_EL2
    && blk.Xlate.k_vncr = Sysreg_file.read sysregs Sysreg.VNCR_EL2
    && blk.Xlate.k_features == cpu.Cpu.features
    && blk.Xlate.k_mask == cpu.Cpu.nv2_mask
    && Expose.Policy.equal blk.Xlate.k_expose cpu.Cpu.expose
  in
  let rekey blk =
    let hcr = Cpu.hcr_view cpu in
    let hcr_raw = cpu.Cpu.hcr_raw in
    Xlate.re_route blk ~el:cpu.Cpu.pstate.Pstate.el ~hcr ~hcr_raw
      ~vncr:(Cpu.vncr_value cpu) ~features:cpu.Cpu.features
      ~mask:cpu.Cpu.nv2_mask ~expose:cpu.Cpu.expose
  in
  (* Replay one cached route-sensitive op.  On a key mismatch the block
     is re-routed under the current inputs and the op retried — an exact
     memoization of what [Cpu.exec] would route right now. *)
  let rec exec_routed blk (r : Xlate.op) =
    match r with
    | Xlate.Plain _ -> assert false
    | Xlate.Routed { insn; action } ->
      if key_ok blk then begin
        match action with
        | Trap_rules.Execute -> Cpu.exec_local cpu insn
        | act -> begin
            match insn with
            | Insn.Msr (_, Insn.Imm _) ->
              (* exec performs the immediate-MSR normalization (mov to
                 the scratch register + re-route with the Reg form) *)
              Cpu.exec cpu insn
            | _ -> Cpu.exec_with_action cpu insn act
          end
      end
      else begin
        rekey blk;
        exec_routed blk r
      end
  in
  let rec step budget =
    if stop cpu then Stopped
    else if budget <= 0 then Limit
    else
      let pc = Cpu.pc cpu in
      if misaligned pc then Halted pc
      else begin
        let gen = Memory.code_gen mem in
        let hcr = Cpu.hcr_view cpu in
        let hcr_raw = cpu.Cpu.hcr_raw in
        let blk =
          Xlate.lookup xc mem ~pc ~gen ~el:cpu.Cpu.pstate.Pstate.el ~hcr
            ~hcr_raw ~vncr:(Cpu.vncr_value cpu) ~features:cpu.Cpu.features
            ~mask:cpu.Cpu.nv2_mask ~expose:cpu.Cpu.expose
        in
        let ops = blk.Xlate.ops in
        let n = Array.length ops in
        if n = 0 then
          (* entry sits on the halt marker or an unknown word;
             stop/budget/alignment were checked above, and the lookup
             validated the code generation *)
          match blk.Xlate.term with
          | Xlate.T_halt -> Breakpoint
          | Xlate.T_unknown -> Halted pc
          | Xlate.T_fallthrough | Xlate.T_branch -> assert false
        else
          (* Execute op [i]; stop/budget/alignment already checked for
             it (by this dispatcher for op 0, by the previous iteration
             for the rest — once per instruction). *)
          let rec go i budget =
            (match Array.unsafe_get ops i with
            | Xlate.Plain insn -> Cpu.exec_local cpu insn
            | Xlate.Routed _ as r -> exec_routed blk r);
            let budget = budget - 1 in
            let expected =
              Int64.add blk.Xlate.entry (Int64.of_int ((i + 1) * 4))
            in
            (* Side exits: control left the straight line (branch taken,
               exception, handler redirect) or code was modified under
               our feet — back to the dispatcher, which re-validates. *)
            if Cpu.pc cpu <> expected || Memory.code_gen mem <> gen then
              step budget
            else if i + 1 >= n then begin
              match blk.Xlate.term with
              | Xlate.T_branch | Xlate.T_fallthrough -> step budget
              | Xlate.T_halt ->
                if stop cpu then Stopped
                else if budget <= 0 then Limit
                else Breakpoint
              | Xlate.T_unknown ->
                if stop cpu then Stopped
                else if budget <= 0 then Limit
                else Halted expected
            end
            else if stop cpu then Stopped
            else if budget <= 0 then Limit
            else go (i + 1) budget
          in
          go 0 budget
      end
  in
  let outcome = step max_insns in
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
      let w = fetch32 mem addr in
      let text =
        match Encode.decode w with
        | Encode.D_insn insn -> Insn.to_string insn
        | Encode.D_unknown w -> Printf.sprintf ".word 0x%08x" w
      in
      (addr, text))
