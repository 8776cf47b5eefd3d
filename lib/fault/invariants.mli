(** Architectural invariant checking.

    Checks never raise and never mutate machine state; each returns the
    violations found, carrying cpu/EL/PC context.  The machine layer
    runs {!check_entry} before and {!check_cpu}/{!check_monotone} after
    every EL2 exception, and the VNCR page-synchronization sweep goes
    through {!check_sync}. *)

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

val check_cpu : ?id:int -> Arm.Cpu.t -> violation list
(** Steady-state checks: SPSR_EL2/SPSR_EL1 decode to a legal mode at or
    below their bank's EL; ELR_EL2/ELR_EL1 and PC are 4-byte aligned. *)

val check_entry : ?id:int -> Arm.Cpu.t -> violation list
(** At an EL2 exception entry: the cpu is at EL2 and SPSR_EL2 records a
    legal interrupted context at or below EL2. *)

val check_monotone : ?id:int -> state -> Arm.Cpu.t -> violation list
(** Cost counters (cycles, insns, traps, mem accesses) never decrease.
    Updates the watermarks. *)

val check_sync :
  ?id:int ->
  name:string ->
  Arm.Cpu.t ->
  (string * int64 * int64) list ->
  violation list
(** [(what, expected, actual)] sweep — one violation per mismatch. *)
