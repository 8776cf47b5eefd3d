(** The simulated CPU: machine state plus the instruction-execution engine.

    Execution is synchronous: when an instruction traps to EL2, the
    hardware exception entry is performed and the installed EL2 handler
    (the host hypervisor) runs immediately; it finishes by executing eret
    at EL2, which restores the interrupted context, and the original
    {!exec} call returns.  This mirrors trap-and-emulate without a
    scheduler.

    The general registers x0..x30 and the PC live in one word file
    ({!field-regs}): 32 unboxed 64-bit words in a [Bytes.t], read and
    written through {!get_reg}/{!set_reg} and {!pc}/{!set_pc}.  A
    register write or a PC advance stores a word and allocates nothing.

    On every EL2 exception entry the 31 general registers are copied into
    the next of a stack of preallocated 31-word frames (as real KVM saves
    guest GPRs); handler code works on the top frame via
    {!get_trapped_reg}/{!set_trapped_reg}, and the handler's eret copies
    the frame back and pops it — so hypervisor code can use registers
    freely without corrupting the guest.  Entry and eret are two blits:
    a trap round trip allocates nothing. *)

exception Undefined_instruction of Insn.t * Pstate.el
(** The ARMv8.0 crash case: an EL2 instruction executed deprivileged with
    no nested-virtualization support (Section 2). *)

exception No_el2_handler of Exn.entry

val trail_depth : int
(** 8: the newest traps a CPU's trail holds. *)

type trail
(** Preallocated slots, each a trap kind with the trapping instruction
    (rendered only when read) or a text: recording allocates nothing. *)

type t = {
  regs : Bytes.t;
      (** the word file: x0..x30 at byte offsets [0..240], then the PC;
          native-endian unboxed words.  Use the accessors below *)
  mutable pstate : Pstate.t;
  sysregs : Sysreg_file.t;
  mem : Memory.t;
  mutable features : Features.t;
  meter : Cost.meter;
  mutable el2_handler : handler option;
  mutable el1_handler : handler option;
  mutable el1_vectors : bool;
      (** an UNDEFINED instruction below EL2 takes the EL1 vector even
          with no simulated EL1 handler (set by {!Machine.create}; bare
          CPUs default to raising {!Undefined_instruction}) *)
  mutable frames : Bytes.t;
      (** saved GPR frames, {!nregs} words each, oldest first; the
          buffer grows only when a trap nests deeper than any before *)
  mutable depth : int;
      (** how many frames are live: the EL2 exception entries not yet
          ended by their eret *)
  mutable nv2_mask : Trap_rules.nv2_mask;
      (** simulator-only ablation knob: which NEVE mechanisms this
          "hardware" implements *)
  mutable expose : Expose.Policy.t;
      (** OoH per-feature grant set L0 handed this guest hypervisor
          (set by {!Machine.create}; immutable for the VM's life) *)
  mutable hcr_raw : int64;
      (** raw HCR_EL2 value behind {!field-hcr_cached}; the decoded view is
          refreshed only when this changes *)
  mutable hcr_cached : Hcr.view;
  mutable xlate : Xlate.t;
      (** superblock translation + decode cache (each CPU gets its own;
          the interpreter executes through it).  CPUs that never run
          while another of them runs may share one if each flushes its
          blocks ({!Xlate.flush}) before running, as {!rewind} does; the
          decoded words they share are never stale *)
  trail : trail option;
      (** what a [Sim_fault] reports; only a checked machine's CPUs
          keep one *)
}

and handler = t -> Exn.entry -> unit

val create :
  ?features:Features.t ->
  ?table:Cost.table ->
  ?mem:Memory.t ->
  ?meter:Cost.meter ->
  ?trail:bool ->
  unit ->
  t
(** A CPU at EL2 with reset state.  Pass [mem] to share physical memory
    between CPUs of one machine; [~trail:true] keeps a trap trail. *)

type mark
(** Every mutable field of a CPU as it was when marked, its register
    file, meter and trail included.  Not included: the shared memory
    (marked by its owner) and the translation cache ([xlate]). *)

val mark : t -> mark
val rewind : t -> mark -> unit
(** Put back every marked field, and empty the translation cache's
    blocks ({!Xlate.flush}): a rewind is a code change
    ({!Memory.rewind}), so no cached block could validate again.  A
    trap's exception entry travels in its routed action
    ({!Trap_rules.action}), so there is no trap cache to empty.
    Decoded words stay: a word decodes the same whatever memory holds,
    so they cannot go stale (the owner of a cache rewound for a whole
    campaign drops them with {!Xlate.forget_words}, as the fuzzer does
    once per program). *)

val nregs : int
(** 31: the general registers x0..x30, the words of one frame. *)

val pc : t -> int64
val set_pc : t -> int64 -> unit

val pc_offset : int
(** The PC's byte offset in {!field-regs}, where {!Xlate.lookup} reads
    it. *)

val pc_is : t -> int64 -> int -> bool
(** [pc_is t base off] is whether the PC is [base + off], tested
    unboxed: the interpreter's side-exit check. *)

val get_reg : t -> int -> int64
(** Register 31 is XZR and reads zero.
    @raise Invalid_argument outside 0..31. *)

val set_reg : t -> int -> int64 -> unit
(** Writes to register 31 (XZR) are discarded.
    @raise Invalid_argument outside 0..31. *)

val gprs : t -> string
(** x0..x30 as {!nregs} native-endian words (read them with
    [String.get_int64_ne]): a copy of the live registers that boxes no
    word. *)

val gprs_equal : t -> string -> bool
(** [gprs_equal t s]: [s] is what {!gprs} would return now.  Compares
    in place, allocating nothing. *)

val table : t -> Cost.table

val peek_sysreg : t -> Sysreg.t -> int64
(** Raw register-file read for tests and hardware-internal logic; not an
    instruction, costs nothing. *)

val poke_sysreg : t -> Sysreg.t -> int64 -> unit

val exception_entry : t -> Exn.entry -> unit
(** Hardware exception entry: sets ESR/ELR/SPSR (and FAR/HPFAR for
    aborts), switches to the target EL, pushes a frame holding the GPRs
    (EL2 targets), charges the entry cost and invokes the installed
    handler. *)

val data_abort : t -> is_write:bool -> addr:int64 -> unit
(** A stage-2 data abort on [addr] taken to EL2: writes [addr] to FAR_EL2
    (and its page to HPFAR_EL2), then {!exception_entry} of a shared
    [EC_dabt_lower] entry, so it allocates nothing.  The handler reads the
    address from FAR_EL2.  Every stage-2 data abort is raised here. *)

val do_eret : t -> unit
(** Architectural eret at the current exception level: restores PSTATE
    and PC from SPSR/ELR, copies the top frame back into the GPRs and
    pops it (at EL2, when one is live), charges the return cost. *)

val advance_pc : t -> unit

val scratch_reg : int
(** x9: used for normalized immediate MSRs and the {!mrs}/{!msr}
    helpers. *)

val exec : t -> Insn.t -> unit
(** Execute one instruction: route it ({!Trap_rules.route}), then run,
    redirect, defer to memory, disguise, trap to EL2, or raise
    {!Undefined_instruction}. *)

val route : t -> Insn.t -> Trap_rules.action
(** {!Trap_rules.route} of the instruction under the CPU's current
    routing state (HCR_EL2, VNCR_EL2, features, NV2 mask, OoH grant,
    EL): what {!exec} would do with it now. *)

val exec_local : t -> Insn.t -> unit
(** Execute with no routing, as if the router said [Execute].  Only
    sound for instructions the router maps to [Execute] unconditionally
    (the superblock executor's [Plain] class). *)

val exec_with_action : t -> Insn.t -> Trap_rules.action -> unit
(** Execute under a pre-computed route action — the superblock
    executor's replay path for cached [Routed] ops.  The action must
    equal what {!Trap_rules.route} would return for the current state;
    immediate-MSR normalization is NOT performed here, so callers must
    route [Msr (_, Imm _)] with a non-[Execute] action through {!exec}
    instead. *)

val ldr_at : t -> int -> base:int64 -> int -> unit
(** [ldr_at t rt ~base off] is [exec t (Ldr (rt, Abs (base + off)))],
    with no instruction built, the address never boxed and the loaded
    word moved unboxed. *)

val str_at : t -> int -> base:int64 -> int -> unit
(** [str_at t rt ~base off] is [exec t (Str (rt, Abs (base + off)))],
    likewise. *)

val get_reg_into : t -> int -> Bytes.t -> int -> unit
(** [get_reg_into t n b off] stores {!get_reg}[ t n] as the 64-bit
    word at byte [off] of [b], unboxed.  Costs nothing. *)

val set_reg_from : t -> int -> Bytes.t -> int -> unit
(** [set_reg_from t n b off] is {!set_reg}[ t n] of the 64-bit word at
    byte [off] of [b], unboxed.  Costs nothing. *)

val record_trap : t -> detail:string -> Cost.trap_kind -> unit
(** [Cost.record_trap ~detail] on the CPU's meter, and [detail] in its
    trail: a trap that no instruction took (an abort, an interrupt). *)

val trail_entries : t -> (Cost.trap_kind * string) list
(** The trail, newest first, rendered now; [[]] without a trail. *)

val load_trail : t -> (Cost.trap_kind * string) list -> unit
(** Replace the trail with these entries, newest first, kept as text
    (the newest {!trail_depth}; none without a trail). *)

val deliver_irq : t -> bool
(** A physical interrupt arrives: routed to EL2 when executing below EL2
    with HCR_EL2.IMO set.  Returns whether it was delivered. *)

val pend_vserror : t -> syndrome:int64 -> unit
(** FEAT_RAS: pend a virtual SError — set HCR_EL2.VSE and program
    VSESR_EL2.  Purely architectural state, so a snapshot taken before
    delivery carries the pending error. *)

val vserror_pending : t -> bool

val deliver_vserror : t -> bool
(** Take a pending virtual SError at EL1 (EC 0x2f, ISS from VSESR_EL2,
    syndrome latched into VDISR_EL2).  Only fires below EL2 with
    HCR_EL2.VSE set; returns whether it was delivered. *)

val mrs : t -> Sysreg.access -> int64
(** Execute a real MRS (costed and routed, as by {!exec}) into
    {!scratch_reg} and return the value read.  At EL2, where the router
    would answer [Execute], the access runs directly with no
    instruction built and no routing. *)

val mrs_into : t -> Sysreg.access -> Sysreg_file.t -> Sysreg.t -> unit
(** [mrs_into t access dst r] is
    [Sysreg_file.hw_write dst r (mrs t access)] (storing a register into
    a virtual register file), without boxing the value on the EL2
    path. *)

val msr : t -> Sysreg.access -> int64 -> unit
(** Execute an immediate MSR, as by {!exec}; same EL2 path as {!mrs}. *)

val msr_from : t -> Sysreg.access -> Sysreg_file.t -> Sysreg.t -> unit
(** [msr_from t access src r] is [msr t access (Sysreg_file.read src r)]
    (loading a register from a virtual register file), without boxing
    the value on the EL2 path. *)

val get_trapped_reg : t -> int -> int64
(** Guest registers as they were at the current trap (and as the
    handler's eret will restore them): the top frame, or the live
    registers when no frame is.  Numbers outside 0..30 read zero. *)

val set_trapped_reg : t -> int -> int64 -> unit
(** Write the top frame (the live registers when no frame is); numbers
    outside 0..30 are ignored. *)

val get_trapped_into : t -> int -> Sysreg_file.t -> Sysreg.t -> unit
(** [get_trapped_into t n dst r] is
    [Sysreg_file.hw_write dst r (get_trapped_reg t n)], moving the value
    as an unboxed word. *)

val set_trapped_from : t -> int -> Sysreg_file.t -> Sysreg.t -> unit
(** [set_trapped_from t n src r] is
    [set_trapped_reg t n (Sysreg_file.read src r)], likewise. *)

val set_trapped_load : t -> int -> base:int64 -> int -> unit
(** [set_trapped_load t n ~base off] is
    [set_trapped_reg t n (Memory.read64 t.mem (base + off))], likewise. *)

val saved_frames : t -> int64 array list
(** The live frames, innermost (top) first, as boxed copies: for
    serialization and tests. *)

val set_saved_frames : t -> int64 array list -> unit
(** Replace every frame, innermost first.
    @raise Invalid_argument if a frame is not {!nregs} words. *)
