(** Versioned, byte-deterministic snapshots of the complete machine.

    {!save} serializes everything mutable — physical memory, per-CPU
    register state and cost meters, the host hypervisors' vCPU contexts
    (virtual EL1 and EL2 files), shadow stage-2 tables, guest-hypervisor
    software state, the fault plan's PRNG cursor, invariant watermarks
    and recorded violations — into canonical bytes (see {!Codec}): fixed
    field order, big-endian payloads, hash tables through sorted views.
    Saving the same machine twice yields byte-identical images.

    Each component (PSTATE, register file, meter, CPU, vCPU, host and
    guest hypervisor, fault plan, violation, machine) is declared once as
    named fields with typed codecs; {!save}, {!restore}, {!diff} and
    {!leaves} all derive from the declarations, working on the bytes
    directly.
    {!restore} checks every field against its codec: NZCV in 0..15,
    list-register counts in 0..[Sysreg.lr_count], [ncpus] in
    1..[Vcpu.max_vcpus], cost-table entries in 0..2^32, event counters
    non-negative, every int field within OCaml's 63-bit range,
    enumeration codes (EL, mechanism, revision, scenario,
    trap and fault kinds, OoH features and exposure bits), one entry per
    vCPU in every per-vCPU list, [Cpu.nregs] words per GPR file and saved
    frame, [Sysreg.count] values and dirty bytes per register file, 43
    cost-table entries, four invariant watermarks per vCPU, 8-byte-aligned
    memory addresses, shadow allocator indices within the allocator list,
    and guest-hypervisor presence matching the scenario.

    The NEVE deferred access page is captured raw, never drained: the
    fold of the guest hypervisor's execution mapping into the virtual EL2
    file belongs to its trapped eret, and a restored machine must perform
    that fold itself, exactly as the original would have.

    {!restore} rebuilds the machine through [Machine.create] (so every
    handler, hook and injection point is rewired) and then overwrites all
    mutable state from the image.  Closures are rebuilt, not serialized;
    device MMIO backends ([Guest_hyp.on_mmio]) are the caller's to
    re-attach. *)

exception Format_error of string
(** Malformed or version-incompatible snapshot input. *)

val version : int
(** Format version written into and required of every snapshot. *)

val to_string : Hyp.Machine.t -> string
(** The machine's image: its canonical bytes, written from the
    declarations into a buffer reused by the calling domain and returned
    as one string of exactly their length. *)

val save : Hyp.Machine.t -> Buffer.t
(** {!to_string} in a buffer. *)

val restore : string -> Hyp.Machine.t
(** @raise Format_error on malformed input or a field outside its
    codec's range, naming the field's path. *)

val diff : Hyp.Machine.t -> Hyp.Machine.t -> (string * string) option
(** Structural comparison of the two machines' images, in place: [None] when the
    machines serialize identically, otherwise the path of the first
    diverging field (e.g. ["cpus[0].meter.cycles"] or
    ["hosts[0].deferred_page.SPSR_EL1"]) and a rendering of both sides.
    Machines of different topology ([ncpus], [config], [scenario],
    [expose] or the MMIO memory layout) compare as a mismatch at the
    topology field's path, its rendering prefixed ["topology mismatch: "],
    never as a state diff. *)

val leaves : Hyp.Machine.t -> (string * (unit -> unit)) list
(** Every int, word, bool and enumeration leaf that {!restore} writes
    after [Machine.create], by its {!diff} path (e.g.
    ["cpus[0].meter.cycles"]), each with a thunk that sets it on the
    given machine to another value its codec accepts.  Topology and
    construction fields, strings, options and lists of values, and
    custom codecs (memory words, the shadow stage-2, the per-kind counts,
    the corruption thunk) are not listed.  For checking that
    [Machine.rewind] puts back every field the image declares. *)
