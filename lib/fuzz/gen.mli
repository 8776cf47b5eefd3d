(** Seed-deterministic generator of well-formed guest-hypervisor programs.

    Programs are random {!Prog.t} snippet sequences over MSR/MRS (every
    access form in the paravirt registry: direct registers of
    [Sysreg.all] plus the [_EL12]/[_EL02] aliases), hypercalls, [eret],
    [smc]/[svc], scratch-memory loads/stores, ALU noise and
    snippet-granular branches — biased toward encodings that trap to EL2
    under at least one target architecture (the {e trap-rule registry}).

    Well-formedness rules keep the differential oracle sound:
    - only encodable instruction shapes are emitted (programs run from
      memory through the binary patcher);
    - memory accesses stay inside {!Diff.scratch_base}'s window, so no
      program can observe mechanism-private memory such as the NEVE
      deferred access page;
    - counter registers (CNTVCT) are never accessed — their values depend
      on the cycle count, which legitimately differs per mechanism;
    - [hvc] immediates stay below 64, outside the paravirt operand
      protocol. *)

(** A trap rule: an encoding that reaches EL2 under at least one target
    architecture of {!Hyp.Config.all_nested}. *)
type rule =
  | R_access of Arm.Sysreg.access * bool  (** access form, is_read *)
  | R_hvc
  | R_eret
  | R_smc

val rule_name : rule -> string

val registry : rule list
(** All trap rules, in a stable order. *)

val rules_for : Hyp.Config.t -> rule list
(** The trap rules of one target configuration — the rows of the
    coverage matrix test. *)

val scratch_base : int
val scratch_len : int
(** The only memory window generated programs read or write — also the
    guest-visible memory the oracle compares. *)

type t

val create : seed:int -> t
(** Same seed, same program sequence — the generator's only entropy
    source is a self-contained {!Fault.Plan.Rng}. *)

val program : t -> Prog.t
(** Draw the next program, recording every emitted rule as covered.
    Uncovered registry rules are drained first (coverage-directed bias),
    then draws are uniform over the access pool. *)

val is_covered : t -> rule -> bool
val covered_count : t -> int
val registry_size : int

val insn_forms_used : t -> string list
(** Instruction-constructor shapes emitted so far (sorted). *)

val insn_form_total : int
