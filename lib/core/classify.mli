(** Software-facing queries over the NEVE register classification
    (paper Tables 3, 4 and 5).

    The raw per-register classification lives in {!Arm.Sysreg.neve_class}
    because it is part of the architecture; this module answers the
    questions hypervisor software asks about it. *)

type behaviour =
  | Deferred
      (** reads and writes go to the deferred access page (Table 3) *)
  | Redirected of Arm.Sysreg.t
      (** reads and writes go to the named EL1 register (Table 4) *)
  | Cached_read_trap_write
      (** reads served from the page; writes trap (Tables 4 and 5) *)
  | Always_trap  (** EL2 timers and unclassified EL2 registers *)
  | Untouched    (** NEVE does not change this access *)

val behaviour : guest_vhe:bool -> Arm.Sysreg.t -> behaviour
(** The NEVE treatment of a direct access from virtual EL2.  [guest_vhe]
    selects the redirect-or-trap resolution for TCR_EL2/TTBR0_EL2
    (Section 6.1: redirected only when the EL2 format matches EL1, i.e.
    for VHE guest hypervisors). *)

val redirected_pairs : (Arm.Sysreg.t * Arm.Sysreg.t) list
(** All (EL2 register, EL1 twin) redirection pairs — also the virtual-EL2
    execution mapping a host maintains in hardware EL1 registers while a
    guest hypervisor runs. *)

val eliminated_traps :
  guest_vhe:bool -> (Arm.Sysreg.t * bool) list -> int
(** [eliminated_traps ~guest_vhe accesses] counts how many of the given
    (register, is_read) accesses NEVE turns into non-trapping operations. *)

val pp_classification : Format.formatter -> unit -> unit
(** Print the full classification, one register per line (the
    [neve_sim classify] output). *)
