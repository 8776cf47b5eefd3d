(** Fetch-decode-execute over A64-encoded memory.

    Programs live as 32-bit words in simulated physical memory; the
    interpreter fetches at PC, decodes and executes through {!Cpu.exec},
    so all the trap machinery applies.  This makes the binary-patching
    flavour of the paper's paravirtualization (Section 4) a real
    execution path: patch a guest-hypervisor image word-for-word in
    memory ({!Hyp.Paravirt.patch_text}) and run it from memory.

    The one execution loop runs through the per-CPU superblock
    translation cache ({!Xlate}): straight-line code is formed into a
    block once per (block-entry PC, CPU) from words decoded once while
    the decode cache keeps them, routed once per routing state
    ({!Route_key.t}), and replayed with cheap side-exit validation.  A
    warm dispatch allocates nothing.
    Traced and untraced runs use the same loop, and its observations
    equal a fetch/decode/{!Cpu.exec} loop's. *)

type outcome =
  | Halted of int64
      (** fetched an unencodable word at this address, or the PC itself
          was misaligned (A64 instructions are 4-byte aligned) *)
  | Breakpoint       (** reached the halt marker *)
  | Limit            (** instruction budget exhausted *)
  | Stopped          (** the [stop] predicate fired *)

val outcome_to_string : outcome -> string
val pp_outcome : Format.formatter -> outcome -> unit

val halt_marker : int
(** The parking instruction ([b .+0]) terminating loaded programs. *)

val fetch32 : Memory.t -> base:int64 -> int -> int
(** {!Memory.fetch32}: the instruction word at [base + off]. *)

val load : Memory.t -> base:int64 -> int array -> unit
(** Store an encoded program, append the halt marker, and grow the
    memory's tracked code envelope ({!Memory.track_code}) so later
    stores into the program invalidate superblocks decoded from it. *)

val load_program : Memory.t -> base:int64 -> Insn.t list -> unit
(** Assemble (encode) and load. *)

val run :
  ?stop:(Cpu.t -> bool) -> Cpu.t -> entry:int64 -> max_insns:int -> outcome
(** [stop] is checked before each instruction; when it returns [true]
    the run ends with {!Stopped} — the differential fuzzer's way of
    ending a program at a semantic boundary (leaving virtual EL2) rather
    than an address.  A run ends in {!Limit} only after executing
    exactly [max 0 max_insns] instructions. *)

val disassemble : Memory.t -> base:int64 -> count:int -> (int64 * string) list
(** Decodes through the pure decoder, never a CPU's execution cache. *)
