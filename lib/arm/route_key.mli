(** The routing state, and instructions whose route is memoized on it.

    {!Trap_rules.route} reads, besides the instruction, the raw HCR_EL2
    and VNCR_EL2 values (BADDR as well as Enable: a [Defer_to_memory]
    action carries the slot address), the feature record, the NV2 mask,
    the OoH grant and the EL.  A {!t} records them; while it {!holds},
    every instruction routes as it did when the key was taken.  The
    world-switch copy plans are compiled per key, a {!site} replays one
    instruction's action per key, and each interpreter superblock
    ({!Xlate.block}) its routed ops' actions. *)

type t = Xlate.key
(** A CPU's routing state.  Features and the NV2 mask are compared by
    physical identity, the OoH grant with {!Expose.Policy.equal}. *)

val current : Cpu.t -> t

val holds : t -> Cpu.t -> bool
(** [holds k cpu]: [cpu]'s routing state is [k].  Allocates nothing. *)

val share : Xlate.shared_key -> Cpu.t -> t
(** [share s cpu]: [s]'s key, replaced by {!current} first unless it
    holds, so the entries of a memo that miss under one routing state
    take one key.  Allocates only on that replacement. *)

(** {1 Route sites} *)

type site
(** One instruction, preallocated, with its action under the last key it
    was routed under. *)

val site : Insn.t -> site
(** A site not yet routed.
    @raise Invalid_argument for an immediate MSR, which {!Cpu.exec}
    rewrites before it routes. *)

val exec : Cpu.t -> site -> unit
(** [exec cpu s] is [Cpu.exec cpu insn] for the site's instruction: the
    cached action is replayed ({!Cpu.exec_with_action}) while its key
    holds; otherwise the instruction is routed afresh first.  A hit
    allocates nothing. *)

(** {1 Site tables} *)

type table
(** Sites for the instructions a caller numbers [0 .. n-1], each built
    on the first execution of its number, so a table holds only the
    sites its caller touched. *)

val table : int -> (int -> Insn.t) -> table
(** [table n insn_of]: the site of number [i] runs [insn_of i].
    Allocates nothing until the first {!exec_id}. *)

val exec_id : Cpu.t -> table -> int -> unit
(** [exec_id cpu tbl i] is {!exec} of number [i]'s site.  Past
    {!max_sites} distinct numbers, a new number runs unmemoized, through
    {!Cpu.exec}.
    @raise Invalid_argument if [i] is outside [0 .. n-1]. *)

val max_sites : int
