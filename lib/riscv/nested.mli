(** Nested virtualization on the RISC-V H-extension — the Section 8
    counterpoint, quantified.

    Runs a kvm/riscv-shaped world switch for one nested-VM exit with a
    deprivileged guest hypervisor, under plain H-extension trapping and
    under a hypothetical NEVE-like deferral, and counts traps for
    comparison with the ARM results. *)

type mechanism = Baseline | Deferred

val mechanism_name : mechanism -> string

type machine = {
  meter : Cost.meter;
  mech : mechanism;
  csrs : (Csr.t, int64) Hashtbl.t;
  page : (Csr.t, int64) Hashtbl.t;
}

val create : ?table:Cost.table -> mechanism -> machine

val access : machine -> Csr.t -> is_read:bool -> unit
(** One CSR access by the deprivileged guest hypervisor (V=1): aliased,
    deferred, or trapped per the classification. *)

type result = {
  r_label : string;
  r_traps : int;
  r_cycles : int;
}

val measure : ?table:Cost.table -> mechanism -> result
val run : unit -> result list
val pp : Format.formatter -> result list -> unit
