(* Superblock translation cache: the interpreter's escape from
   one-instruction-at-a-time fetch/decode/route.

   Straight-line code is decoded once into a flat, pre-resolved op array
   per (block-entry PC, CPU) — ending at a branch, the halt marker, an
   undecodable word, or a size cap — with the trap-rule routing hoisted
   from per-instruction [Cpu.exec] to block formation.  Ops come in two
   classes:

   - [Plain]: constructors for which [Trap_rules.route] returns [Execute]
     unconditionally (loads, stores, ALU, barriers, TLBI, branches, SVC).
     These never need routing at all and execute straight through
     [Cpu.exec_local].
   - [Routed]: route-sensitive instructions (MRS/MSR/HVC/SMC/ERET/WFI).
     The action computed at block formation is cached together with the
     exact route inputs it was computed under (EL, raw HCR_EL2, VNCR_EL2,
     features, ablation mask).  Before each cached-action replay the
     executor compares the current inputs against the key; any mismatch
     re-routes the block in place — an exact memoization of
     [Trap_rules.route], never a behavioral approximation.

   Invalidation: the cache holds the [Memory.code_gen] generation the
   block was decoded under; stores into the tracked code envelope bump
   the generation (see {!Memory.track_code}), so stale blocks fail
   validation and are rebuilt from memory.  This is what keeps the
   paper's Section-4 binary-patching path (runtime code writes) and
   snapshot restore correct.

   This module deliberately does not depend on [Cpu]: block formation
   takes the route inputs as values, and execution lives in [Interp]. *)

(* --- program memory packing (two A64 words per 64-bit memory word) --- *)

let fetch32 mem addr =
  let word = Memory.read64 mem (Int64.logand addr (Int64.lognot 7L)) in
  let hi = Int64.logand addr 4L <> 0L in
  Int64.to_int
    (Int64.logand
       (if hi then Int64.shift_right_logical word 32 else word)
       0xffff_ffffL)

(* The halt marker: an architecturally-valid instruction a test program
   ends with ([hvc #0x3f] would be a real hypercall, so use a branch-to-
   self, the canonical "parking" instruction). *)
let halt_marker = Encode.encode (Insn.B 0)

(* --- ops and blocks --- *)

type op =
  | Plain of Insn.t
  | Routed of { insn : Insn.t; mutable action : Trap_rules.action }

(* What follows the last op of a block. *)
type terminal =
  | T_fallthrough  (* size cap: execution continues at the next PC *)
  | T_branch  (* last op rewrites PC itself (B/CBZ/CBNZ/ERET/SVC) *)
  | T_halt  (* the next word is the halt marker *)
  | T_unknown  (* the next word does not decode *)

type block = {
  entry : int64;
  ops : op array;
  term : terminal;
  mutable gen : int;  (* Memory.code_gen the ops were decoded under *)
  (* Route inputs the [Routed] actions were computed under.  Mutable: a
     mid-block route-state change re-routes in place rather than churning
     the cache. *)
  mutable k_el : Pstate.el;
  mutable k_hcr : int64;
  mutable k_vncr : int64;
  mutable k_features : Features.t;
  mutable k_mask : Trap_rules.nv2_mask;
  mutable k_expose : Expose.Policy.t;
}

let max_block_ops = 64

(* --- the per-CPU cache --- *)

let decode_bits = 10
let decode_size = 1 lsl decode_bits
let block_bits = 9
let block_size = 1 lsl block_bits

let empty_block =
  {
    entry = -1L;
    ops = [||];
    term = T_fallthrough;
    gen = -1;
    k_el = Pstate.EL0;
    k_hcr = 0L;
    k_vncr = 0L;
    k_features = Features.v Features.V8_0;
    k_mask = Trap_rules.nv2_off;
    k_expose = Expose.Policy.none;
  }

type t = {
  (* direct-mapped decode cache keyed by the 32-bit instruction word;
     the empty-slot sentinel is -1, which no fetched word can equal
     ([fetch32] masks to 32 bits).  Per-CPU state: sharing it across
     machines was a correctness bug for any multi-machine future. *)
  dec_keys : int array;
  dec_vals : Encode.decoded array;
  (* direct-mapped superblock cache keyed by block-entry PC *)
  blocks : block array;
}

(* Both caches are direct-mapped over a power-of-two array, so a slot
   mask is the array's length minus one. *)
let create ?(block_slots = block_size) () =
  if block_slots <= 0 || block_slots land (block_slots - 1) <> 0 then
    invalid_arg "Xlate.create: block_slots must be a power of two";
  let decode_slots = block_slots * (decode_size / block_size) in
  {
    dec_keys = Array.make decode_slots (-1);
    dec_vals = Array.make decode_slots (Encode.D_unknown 0);
    blocks = Array.make block_slots empty_block;
  }

let decode_cache_size = decode_size

let decode t w =
  let slot = w land (Array.length t.dec_keys - 1) in
  if Array.unsafe_get t.dec_keys slot = w then Array.unsafe_get t.dec_vals slot
  else begin
    let d = Encode.decode w in
    t.dec_keys.(slot) <- w;
    t.dec_vals.(slot) <- d;
    d
  end

let flush t =
  Array.fill t.blocks 0 (Array.length t.blocks) empty_block;
  Array.fill t.dec_keys 0 (Array.length t.dec_keys) (-1);
  Array.fill t.dec_vals 0 (Array.length t.dec_vals) (Encode.D_unknown 0)

(* --- block formation --- *)

let is_plain (insn : Insn.t) =
  match insn with
  | Insn.Ldr _ | Insn.Str _ | Insn.Mov _ | Insn.Add _ | Insn.Sub _
  | Insn.And _ | Insn.Orr _ | Insn.Eor _ | Insn.Lsl _ | Insn.Lsr _
  | Insn.Isb | Insn.Dsb | Insn.Tlbi_vmalls12e1 | Insn.Tlbi_alle2 | Insn.Nop
  | Insn.B _ | Insn.Cbz _ | Insn.Cbnz _ | Insn.Svc _ ->
    true
  | Insn.Mrs _ | Insn.Msr _ | Insn.Hvc _ | Insn.Smc _ | Insn.Eret
  | Insn.Wfi ->
    false

(* Ends the block after itself because it rewrites PC (or, for SVC, takes
   an exception).  HVC/SMC/WFI and trapping MRS/MSR are sequential: the
   handler's eret resumes at PC+4, so they stay inside the block. *)
let ends_block (insn : Insn.t) =
  match insn with
  | Insn.B _ | Insn.Cbz _ | Insn.Cbnz _ | Insn.Eret | Insn.Svc _ -> true
  | _ -> false

(* Decode straight-line code starting at [pc] into a block, routing each
   route-sensitive instruction once under the given inputs. *)
let build t mem ~pc ~gen ~el ~hcr ~hcr_raw ~vncr ~features ~mask ~expose =
  let buf = Array.make max_block_ops (Plain Insn.Nop) in
  let rec scan i addr =
    if i >= max_block_ops then (i, T_fallthrough)
    else
      let w = fetch32 mem addr in
      if w = halt_marker then (i, T_halt)
      else
        match decode t w with
        | Encode.D_unknown _ -> (i, T_unknown)
        | Encode.D_insn insn ->
          if is_plain insn then begin
            buf.(i) <- Plain insn;
            if ends_block insn then (i + 1, T_branch)
            else scan (i + 1) (Int64.add addr 4L)
          end
          else begin
            let action =
              Trap_rules.route ~mask ~expose features ~hcr ~vncr ~el insn
            in
            buf.(i) <- Routed { insn; action };
            if ends_block insn then (i + 1, T_branch)
            else scan (i + 1) (Int64.add addr 4L)
          end
  in
  let n, term = scan 0 pc in
  {
    entry = pc;
    ops = Array.sub buf 0 n;
    term;
    gen;
    k_el = el;
    k_hcr = hcr_raw;
    k_vncr = vncr;
    k_features = features;
    k_mask = mask;
    k_expose = expose;
  }

(* Route state changed mid-block (or the block is entered under different
   state than it was formed under): recompute every cached action under
   the current inputs and rekey.  The instructions themselves are still
   valid — code validity is the generation's job, not the key's. *)
let re_route blk ~el ~hcr ~hcr_raw ~vncr ~features ~mask ~expose =
  Array.iter
    (function
      | Plain _ -> ()
      | Routed r ->
        r.action <- Trap_rules.route ~mask ~expose features ~hcr ~vncr ~el r.insn)
    blk.ops;
  blk.k_el <- el;
  blk.k_hcr <- hcr_raw;
  blk.k_vncr <- vncr;
  blk.k_features <- features;
  blk.k_mask <- mask;
  blk.k_expose <- expose

(* Cached block for [pc] decoded under generation [gen], or rebuild. *)
let lookup t mem ~pc ~gen ~el ~hcr ~hcr_raw ~vncr ~features ~mask ~expose =
  let slot = (Int64.to_int pc lsr 2) land (Array.length t.blocks - 1) in
  let blk = Array.unsafe_get t.blocks slot in
  if blk.entry = pc && blk.gen = gen then blk
  else begin
    let blk =
      build t mem ~pc ~gen ~el ~hcr ~hcr_raw ~vncr ~features ~mask ~expose
    in
    t.blocks.(slot) <- blk;
    blk
  end
