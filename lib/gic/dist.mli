(** GIC distributor: interrupt state per (cpu, intid) with banked SGI/PPI
    and shared SPI records, priority-ordered delivery, and SGI (IPI)
    generation. *)

type irq_record = {
  mutable state : Irq.state;
  mutable enabled : bool;
  mutable priority : int;  (** 0 = highest *)
  mutable target : int;    (** CPU, for SPIs *)
}

type disposition = Deliver | Drop | Duplicate
(** Fault-injection verdict for one raised interrupt. *)

type t

val create : ncpus:int -> t

val set_inject : t -> (cpu:int -> intid:int -> disposition) option -> unit
(** Install (or, with [None], remove) the fault-injection hook consulted
    on every {!raise_irq}. *)

val enabled : t -> bool

val records : t -> (int * int * irq_record) list
(** Every record with its CPU ([-1] for a shared one) and INTID, in the
    tables' iteration order: the order {!best_pending} breaks priority
    ties by. *)

type mark
(** The distributor's flags and a copy of every interrupt record. *)

val mark : t -> mark
val rewind : t -> mark -> unit
(** Put back the marked flags and records, dropping records created
    since, so that iteration (and with it {!best_pending}'s tie-break)
    visits them in the marked order. *)

val enable : t -> cpu:int -> intid:int -> unit
val disable : t -> cpu:int -> intid:int -> unit
val set_priority : t -> cpu:int -> intid:int -> int -> unit
val set_target : t -> intid:int -> cpu:int -> unit

val raise_irq : t -> cpu:int -> intid:int -> unit
(** Make an interrupt pending (banked for SGI/PPI, shared for SPI). *)

val send_sgi : t -> src:int -> dst:int -> intid:int -> unit
(** Pend an SGI on the destination CPU's bank.
    @raise Fault.Error.Sim_fault ([Bad_intid]) if [intid] is not an SGI
    (0..15) or [dst] is not a CPU of this distributor — the
    guest-reachable [ICC_SGI1R_EL1] encoding masks both fields, so a
    trip here is simulator misuse. *)

val best_pending : t -> cpu:int -> int option
(** Highest-priority pending enabled interrupt for a CPU; of equal
    priorities, the first in the tables' iteration order. *)

val acknowledge : t -> cpu:int -> int option
(** Pending -> active; returns the acknowledged intid.  Once the
    distributor's records exist, acknowledging, raising and completing
    an interrupt allocate nothing. *)

val eoi : t -> cpu:int -> intid:int -> unit
val state : t -> cpu:int -> intid:int -> Irq.state
