(** Cross-vCPU TLB shootdown and stage-2 break-before-make.

    Owns the shared SMP stage-2 the vCPUs race over, one {!Tlb.t} per
    vCPU, and the break-before-make state machine — and audits every
    translation it serves against the protocol.  Armv8-A's relaxed
    virtual memory rules allow a remote vCPU to keep using its cached
    copy of the {e old} mapping between [break] and [dsb_complete];
    after completion any service from a broken or stale entry is a
    counted violation, never silently served.

    The machine layer drives the protocol ops in order
    ([break] → per-recipient [invalidate_cpu] → [dsb_complete] → [make]),
    sends the shootdown IPIs as real GIC traffic, and charges
    [Cost.tlbi_recipient] / [Cost.dvm_sync]; this module only charges
    translation costs in {!read}. *)

type scope =
  | By_page of int64  (** TLBI IPAS2E1IS: one IPA page *)
  | By_vmid           (** TLBI VMALLS12E1IS: everything under the VMID *)
  | All_e1            (** TLBI ALLE1IS: everything *)

val scope_name : scope -> string

type t

val create : Arm.Memory.t -> ncpus:int -> vmid:int -> tlb_capacity:int -> t
(** Shared stage-2 table pages allocate from 0xA_0000_0000 upward. *)

val ncpus : t -> int

val map : t -> ipa:int64 -> pa:int64 -> unit
(** First map of a page — no live entry, so no break is required. *)

val break : t -> ipa:int64 -> unit
(** Unmap the live entry and open its break window.  Breaking an
    unmapped page counts a BBM violation. *)

val invalidate_cpu : t -> cpu:int -> scope -> unit
(** One vCPU's TLB processes the invalidation — the initiator locally,
    or a remote vCPU on receiving the broadcast. *)

val dsb_complete : t -> unit
(** The initiator's DSB: the broadcast has completed everywhere, closing
    every open break window.  Stale use after this point is a
    violation. *)

val make : t -> ipa:int64 -> pa:int64 -> unit
(** Write the new entry.  A make whose page was never broken, or whose
    break window never saw a completed broadcast, counts a BBM
    violation. *)

type serve =
  | Fresh of int64            (** agrees with the tables *)
  | Stale of int64            (** cached copy the protocol should have killed *)
  | Stale_in_window of int64  (** old mapping inside an open break window —
                                  architecturally permitted *)
  | Unmapped

val read : t -> cpu:int -> meter:Cost.meter -> ipa:int64 -> serve
(** Translate [ipa] through [cpu]'s TLB (hit: one load) or the shared
    stage-2 (miss: four loads, fills the TLB).  Every serve is audited;
    violations are counted in {!stats}. *)

val note_recipient : t -> unit
(** Record one remote vCPU having processed a broadcast (called by the
    machine layer as it charges [Cost.tlbi_recipient]). *)

type stats = {
  s_stale_serves : int;
  s_broken_serves : int;
  s_bbm_violations : int;
  s_shootdowns : int;
  s_recipients : int;
  s_tlb_hits : int;
  s_tlb_misses : int;
  s_tlb_invalidations : int;
}

val stats : t -> stats

val clean : stats -> bool
(** No stale serves, no broken serves, no BBM violations. *)

val pp_stats : Format.formatter -> stats -> unit
