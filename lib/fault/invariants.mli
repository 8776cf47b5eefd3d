(** Architectural invariant checking.

    Checks never raise and never mutate machine state; each reports the
    violations it finds, carrying cpu/EL/PC context, to a {!sink}.  The
    machine layer builds one sink per CPU and runs {!check_entry} before
    and {!check_cpu}/{!check_monotone} plus its VNCR page-synchronization
    sweep ({!mismatch}) after every EL2 exception.  A check that passes
    allocates nothing; the violation and its detail text are built only
    when it fails.  {!collect} turns any of them into a list. *)

type violation = {
  v_name : string;  (** which invariant *)
  v_cpu : int;
  v_el : Arm.Pstate.el;
  v_pc : int64;
  v_detail : string;
  v_events : string list;
      (** rendered tail of the trace ring (oldest first); empty unless
          tracing was enabled when the violation was built *)
}

val v : ?id:int -> Arm.Cpu.t -> string -> string -> violation
(** Build a violation stamped with the cpu's current EL and PC. *)

val to_string : violation -> string

type state
(** Counter watermarks for {!check_monotone}. *)

val state : unit -> state

val state_dump : state -> int array
(** The watermark counters in a fixed order, for checkpoint/restore. *)

val state_load : state -> int array -> unit
(** Inverse of {!state_dump}.
    @raise Invalid_argument unless the array holds the four watermarks. *)

type sink
(** Where a check reports its violations, stamped with a CPU id. *)

val sink : id:int -> (violation -> unit) -> sink
(** A sink for CPU [id] that passes each violation to the function. *)

val collect : ?id:int -> (sink -> unit) -> violation list
(** The violations the checks run by the function report to a sink for
    CPU [id] (default 0), in the order reported. *)

val check_cpu : sink -> Arm.Cpu.t -> unit
(** Steady-state checks: PC, ELR_EL1 and ELR_EL2 are 4-byte aligned;
    SPSR_EL1/SPSR_EL2 decode to a legal mode at or below their bank's
    EL.  Reported in that order. *)

val check_entry : sink -> Arm.Cpu.t -> unit
(** At an EL2 exception entry: SPSR_EL2 records a legal interrupted
    context at or below EL2 and the cpu is at EL2.  Reported in that
    order. *)

val check_monotone : sink -> state -> Arm.Cpu.t -> unit
(** Cost counters (mem accesses, traps, insns, cycles, reported in that
    order) never decrease.  Updates the watermarks. *)

val mismatch :
  sink ->
  Arm.Cpu.t ->
  name:string ->
  string ->
  expected:int64 ->
  actual:int64 ->
  unit
(** [mismatch s cpu ~name what ~expected ~actual] reports that [what]
    holds [actual] where the invariant [name] wants [expected]: the
    violation of a synchronization sweep, which compares in place and
    calls this only on a mismatch. *)

val check_sync :
  ?id:int ->
  name:string ->
  Arm.Cpu.t ->
  (string * int64 * int64) list ->
  violation list
(** [(what, expected, actual)] sweep — one {!mismatch} per differing
    pair, in order. *)
