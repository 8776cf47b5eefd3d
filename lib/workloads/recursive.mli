(** Recursive virtualization, measured (paper Section 6.2).

    Four levels: L0 host hypervisor -> L1 guest hypervisor -> L2 guest
    hypervisor -> L3 VM.  Every hypervisor instruction of the L2
    hypervisor traps to L0 and is forwarded to L1, costing L1 a full exit
    path — so exit multiplication compounds quadratically on ARMv8.3
    (~121^2 traps per L3 hypercall) while NEVE contains it (~13^2). *)

module Machine = Hyp.Machine
module Config = Hyp.Config

type result = {
  r_label : string;
  r_l3_traps : int;   (** physical traps for one L3 hypercall *)
  r_l3_cycles : int;
  r_l2_traps : int;   (** the two-level baseline, for comparison *)
}

val l2_page : int64
(** The machine-physical page backing the L2 hypervisor's deferred
    accesses (L1's page, translated by L0). *)

val make : Config.t -> Machine.t * Hyp.Guest_hyp.t
(** Assemble the four-level stack: a booted machine with [l2_is_hyp] set
    and a second guest-hypervisor instance as the L2 hypervisor. *)

val measure : Config.t -> label:string -> result
val run : unit -> result list
val pp : Format.formatter -> result list -> unit
