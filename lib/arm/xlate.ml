(* Superblock translation cache: the interpreter's escape from
   one-instruction-at-a-time fetch/decode/route.

   Straight-line code is formed once into a flat, pre-resolved op array
   per (block-entry PC, CPU) — ending at a branch, the halt marker, an
   undecodable word, or a size cap — and each distinct instruction word
   is decoded once while it stays in the decode cache: decoding depends
   on the word alone, so a decoded word never goes stale and survives
   [flush] (only [forget_words] drops it).  Ops come in two classes:

   - [Plain]: constructors for which [Trap_rules.route] returns [Execute]
     unconditionally (loads, stores, ALU, barriers, TLBI, branches, SVC).
     These never need routing at all and execute straight through
     [Cpu.exec_local].
   - [Routed]: route-sensitive instructions (MRS/MSR/HVC/SMC/ERET/WFI).
     A block is a route memo: its routed ops' actions are valid while
     its [key] (the routing state, a [Route_key.t]) holds.  Formation
     routes nothing; a block starts under [unrouted], which never holds,
     so its first routed op routes the whole block.

   Invalidation: the cache holds the [Memory.code_gen] generation the
   block was decoded under; stores into the tracked code envelope bump
   the generation (see {!Memory.track_code}), so stale blocks fail
   validation and are rebuilt from memory.  This is what keeps the
   paper's Section-4 binary-patching path (runtime code writes) and
   snapshot restore correct.

   This module deliberately does not depend on [Cpu]: [Cpu.t] holds the
   cache.  Routing and execution live in [Interp], key checks in
   [Route_key]. *)

(* --- program memory packing (two A64 words per 64-bit memory word) --- *)

let fetch32 = Memory.fetch32

(* The halt marker: an architecturally-valid instruction a test program
   ends with ([hvc #0x3f] would be a real hypercall, so use a branch-to-
   self, the canonical "parking" instruction). *)
let halt_marker = Encode.encode (Insn.B 0)

(* --- routing keys --- *)

type key = {
  hcr : int64;
  vncr : int64;
  features : Features.t;
  mask : Trap_rules.nv2_mask;
  expose : Expose.Policy.t;
  el : Pstate.el;
}

(* Its feature record is this module's own, physically distinct from
   every CPU's, so it never holds. *)
let unrouted =
  {
    hcr = 0L;
    vncr = 0L;
    features = { (Features.v Features.V8_0) with Features.gicv3 = false };
    mask = Trap_rules.nv2_off;
    expose = Expose.Policy.none;
    el = Pstate.EL0;
  }

type shared_key = { mutable last : key }

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
  mutable key : key;  (* the routing state the [Routed] actions hold under *)
}

let max_block_ops = 64

(* --- the per-CPU cache --- *)

let decode_bits = 10
let decode_size = 1 lsl decode_bits
let block_bits = 9
let block_size = 1 lsl block_bits

let empty_block =
  { entry = -1L; ops = [||]; term = T_fallthrough; gen = -1; key = unrouted }

type t = {
  (* decode cache keyed by the 32-bit instruction word, one word per
     slot ([decode_slot]); the empty-slot sentinel is -1, which no
     fetched word can equal ([fetch32] masks to 32 bits).  Per-CPU state:
     sharing it across machines was a correctness bug for any
     multi-machine future. *)
  dec_keys : int array;
  dec_vals : Encode.decoded array;
  (* direct-mapped superblock cache keyed by block-entry PC *)
  blocks : block array;
  (* the key blocks re-routed under the same routing state share *)
  shared : shared_key;
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
    shared = { last = unrouted };
  }

let decode_cache_size = decode_size

let shared t = t.shared

(* A word's decode slot: a multiplicative hash, not the word's low bits.
   Generated code reuses a few registers, so many of a program's words
   share their low bits (the Rt/Rn fields) and differ only above them; a
   slot of the low bits would put them all on one. *)
let[@inline] decode_slot t w =
  ((w * 0x9E3779B1) lsr 20) land (Array.length t.dec_keys - 1)

let decode t w =
  let slot = decode_slot t w in
  if Array.unsafe_get t.dec_keys slot = w then Array.unsafe_get t.dec_vals slot
  else begin
    let d = Encode.decode w in
    t.dec_keys.(slot) <- w;
    t.dec_vals.(slot) <- d;
    d
  end

let flush t = Array.fill t.blocks 0 (Array.length t.blocks) empty_block

let forget_words t =
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

(* The number of ops of the block entered at [pc], from op [i] on: up
   to and including the first that ends a block, short of the halt
   marker or an undecodable word, at most [max_block_ops]. *)
let rec block_length t mem pc i =
  if i >= max_block_ops then i
  else
    let w = Memory.fetch32 mem ~base:pc (i * 4) in
    if w = halt_marker then i
    else
      match decode t w with
      | Encode.D_unknown _ -> i
      | Encode.D_insn insn ->
        if ends_block insn then i + 1 else block_length t mem pc (i + 1)

let insn_at t mem pc i =
  match decode t (Memory.fetch32 mem ~base:pc (i * 4)) with
  | Encode.D_insn insn -> insn
  | Encode.D_unknown _ -> assert false

(* Decode straight-line code starting at [pc] into a block, in two
   passes: the first finds its length, the second fills an op array of
   exactly that length (its words hit the decode cache).  Routed ops get
   a placeholder action under the never-holding key: the first one
   executed routes them all. *)
let build t mem ~pc ~gen =
  let n = block_length t mem pc 0 in
  let ops = Array.make n (Plain Insn.Nop) in
  for i = 0 to n - 1 do
    let insn = insn_at t mem pc i in
    Array.unsafe_set ops i
      (if is_plain insn then Plain insn
       else Routed { insn; action = Trap_rules.Undef })
  done;
  let term =
    if n > 0 && ends_block (insn_at t mem pc (n - 1)) then T_branch
    else if n = max_block_ops then T_fallthrough
    else if Memory.fetch32 mem ~base:pc (n * 4) = halt_marker then T_halt
    else T_unknown
  in
  { entry = pc; ops; term; gen; key = unrouted }

(* A misaligned entry: no op, and the interpreter halts there.
   [fetch32] would read the containing aligned word and run a skewed
   stream.  Not cached: it would evict the aligned entry's block. *)
let[@inline never] misaligned_block pc =
  { empty_block with entry = pc; term = T_unknown }

external get_word : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* Cached block entered at the address in word [at] of [file], decoded
   under generation [gen], or rebuild.  The address is read unboxed, so
   a hit allocates nothing. *)
let lookup t mem (file : Bytes.t) at ~gen =
  if at < 0 || at > Bytes.length file - 8 then invalid_arg "Xlate.lookup";
  let pc = get_word file at in
  if Int64.logand pc 3L <> 0L then misaligned_block pc
  else
    let slot = (Int64.to_int pc lsr 2) land (Array.length t.blocks - 1) in
    let blk = Array.unsafe_get t.blocks slot in
    if blk.entry = pc && blk.gen = gen then blk
    else begin
      let blk = build t mem ~pc ~gen in
      t.blocks.(slot) <- blk;
      blk
    end
