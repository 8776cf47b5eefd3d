(** Deterministic, seed-driven fault plans.

    A plan schedules a fixed number of faults at trap counts drawn from
    its own self-contained PRNG; the same [(seed, faults, horizon)]
    triple always yields the same plan and the same injected sequence.
    Consumers poll {!due} with the machine's running trap count and
    apply whatever fired. *)

(** Self-contained splitmix64 generator (never [Stdlib.Random]). *)
module Rng : sig
  type t

  val make : int -> t
  val next : t -> int64
  val int : t -> int -> int
  (** Uniform in [\[0, bound)]. @raise Invalid_argument on bound <= 0. *)

  val bool : t -> bool
end

type kind =
  | Spurious_trap
      (** exception entry to EL2 with no architectural cause *)
  | Corrupt_sysreg
      (** the next hypervisor-visible sysreg read is corrupted *)
  | Drop_irq  (** the next raised interrupt is lost *)
  | Duplicate_irq  (** the next raised interrupt is delivered twice *)
  | S2_fault  (** a spurious stage-2 translation fault *)
  | Serror  (** a physical SError arrives at L0 (RAS containment) *)
  | Hang_vcpu  (** the vCPU stops retiring guest work (hung guest) *)

val all_kinds : kind list
val kind_name : kind -> string

type t

val make : seed:int -> faults:int -> horizon:int -> t
(** [faults] events at uniform trap counts in [\[1, horizon\]]. *)

val due : ?kind:kind -> t -> traps:int -> kind list
(** Pop every not-yet-fired event scheduled at or before [traps],
    oldest first; with [?kind], only events of that kind are considered
    (and consumed).  Each event fires exactly once. *)

val corrupt : t -> int64 -> int64
(** Xor with a plan-seeded nonzero mask. *)

val pick : t -> int -> int
val flip : t -> bool

val injected : t -> (int * kind) list
(** Events fired so far, oldest first, with their scheduled trap count. *)

(** Complete mutable state of a plan, for checkpoint/restore: the PRNG
    cursor, every event's fired flag and the injected log.  A restored
    plan continues exactly where the saved one stopped. *)
type raw = {
  raw_seed : int;
  raw_rng : int64;
  raw_events : (int * kind * bool) list;
  raw_injected : (int * kind) list;  (** newest first *)
}

val to_raw : t -> raw
val of_raw : raw -> t

val injected_counts : t -> (kind * int) list
val pp : Format.formatter -> t -> unit
