(** Exit-attribution tracing: a preallocated ring buffer of typed events
    plus monotonically-aggregated per-exit-class counters keyed by the
    paper's Table 7 taxonomy (the class strings are
    [Cost.trap_kind_name] values — the dependency points the other way,
    [cost] emits into [trace]).

    Emission sites throughout the simulator are guarded by
    [if !Trace.on then ...]: with tracing disabled each site costs one
    load-and-branch and allocates nothing.  Timestamps are simulated
    cycles and sequence numbers, never wall clock, so traces are
    byte-deterministic per run.

    {b Domain model.}  All mutable trace state — the ring, the class
    counters, the clock — is domain-local ([Domain.DLS]): each domain
    that calls {!enable} traces into its own sink, so fleet shards on
    separate domains emit race-free and read back their own counters.
    The one shared word is {!on}, a cross-domain {e may-trace} guard:
    worker domains may {!enable} (setting it true is idempotent) and
    must stand down with {!detach}; only the coordinating domain — after
    joining its workers — may {!disable}, which also drops the guard. *)

(** Event taxonomy (DESIGN.md section 4f maps these onto the paper's
    Table 7 exit classes). *)
type kind =
  | Trap            (** a classified trap ([Cost.record_trap] chokepoint) *)
  | Exn_entry       (** architectural exception entry (EL, class, syndrome) *)
  | Exn_return      (** eret *)
  | Ws_enter        (** world switch into the host hypervisor *)
  | Ws_exit         (** world switch back to the guest *)
  | Page_populate   (** deferred access page populated *)
  | Page_drain      (** deferred access page drained/folded *)
  | Vncr_program    (** VNCR_EL2 written by the host *)
  | Vncr_redirect   (** an access redirected to the page by NV2 *)
  | Tlb_hit
  | Tlb_miss
  | Tlb_evict
  | Tlb_invalidate
  | S2_walk         (** stage-2 table walk *)
  | Gic_inject      (** virtual interrupt placed in a list register *)
  | Gic_ack         (** VM acknowledged a virtual interrupt *)
  | Gic_eoi         (** VM completed a virtual interrupt *)
  | Fault_inject    (** the fault plan fired an event *)
  | Pv_hvc          (** paravirt hvc protocol operand decoded *)
  | Pv_patch        (** binary patcher rewrote a text section *)
  | Run_begin       (** interpreter run started *)
  | Run_end         (** interpreter run finished *)
  | Serror_pend     (** virtual SError pended (HCR_EL2.VSE set) *)
  | Serror_deliver  (** SError exception taken by a guest EL *)
  | Watchdog_fire   (** supervision watchdog detected a sick vCPU *)
  | Recover_begin   (** recovery policy started executing *)
  | Recover_end     (** recovery policy finished *)
  | Mig_abort       (** migration attempt aborted on a stream failure *)
  | Mig_retry       (** migration retried after backoff *)
  | Tlb_shootdown   (** broadcast TLBI: every vCPU's TLB + shadow hit *)
  | Bbm_break       (** break-before-make: old stage-2 entry broken *)
  | Bbm_make        (** break-before-make: new stage-2 entry installed *)
  | Exposed_access  (** OoH grant made a vEL2 access run trap-free *)

val kind_name : kind -> string

(** Immutable copy of a ring slot. *)
type view = {
  v_seq : int;        (** global sequence number (total order) *)
  v_cycles : int;     (** simulated cycles when emitted *)
  v_tid : int;        (** emitting CPU id (the Chrome-export lane) *)
  v_kind : kind;
  v_cls : string;     (** exit class, for [Trap] events *)
  v_a0 : int64;
  v_a1 : int64;
  v_detail : string;
}

val on : bool ref
(** The single branch the disabled path pays.  Call sites guard emission
    (and any argument construction) with [if !Trace.on then ...].  Use
    {!enable}/{!disable}/{!detach} to flip it — never write it directly,
    or the ring may be unallocated.  True means {e some} domain may be
    tracing; {!emit} then consults the calling domain's own gate, so a
    domain that never enabled still emits nothing. *)

val is_on : unit -> bool
(** Whether the {e calling domain} is tracing. *)

val enable : ?capacity:int -> unit -> unit
(** Preallocate a ring of [capacity] (default 4096) event slots in the
    calling domain's sink, clear its counters, and turn emission on for
    this domain.  Re-enabling with the same capacity reuses the
    allocation. *)

val disable : unit -> unit
(** Turn emission off — this domain's gate and the cross-domain guard.
    Buffered events and counters stay readable.  Must not be called
    while another domain is tracing; shard workers use {!detach}. *)

val detach : unit -> unit
(** Turn emission off for the calling domain only, leaving the
    cross-domain guard up.  What shard workers call instead of
    {!disable}, so they cannot silence a sibling domain mid-run. *)

val reset : unit -> unit
(** Clear events and counters without touching the enabled flag. *)

val emit :
  ?cycles:int ->
  ?tid:int ->
  ?cls:string ->
  ?a0:int64 ->
  ?a1:int64 ->
  ?detail:string ->
  kind ->
  unit
(** Write one event into the ring (no-op when disabled).  [cycles]
    advances the sink's clock; emitters without a meter inherit the last
    stamp.  [tid] names the emitting CPU and sticks the same way, so
    emitters with no CPU identity (TLB, vGIC codec, fault plans) land on
    the lane of the CPU whose activity triggered them.  A [Trap] event
    increments the per-class counter for [cls]. *)

val total_emitted : unit -> int
(** Events emitted since {!enable}/{!reset}, including overwritten ones. *)

val dropped : unit -> int
(** Events overwritten because the ring wrapped. *)

val events : unit -> view list
(** The retained window, oldest first (at most {!capacity} events). *)

val last : int -> view list
(** The newest [n] retained events, oldest first. *)

val class_counts : unit -> (string * int) list
(** Per-exit-class trap counters, sorted by class name.  Only [Trap]
    events count, so the sum equals the number of classified traps —
    {!class_total} — by construction. *)

val class_count : string -> int
val class_total : unit -> int

val render : view -> string

val chrome_json : (string * view list) list -> Json.t
(** Chrome trace-event JSON ({"traceEvents": [...]} object format): one
    process per named stream, one thread lane per emitting CPU id, each
    event an instant stamped with its sequence number, simulated cycles
    in [args].  Loads in chrome://tracing and Perfetto. *)

val metrics_json :
  ?extra:(string * int) list ->
  (string * (string * int) list * int) list ->
  Json.t
(** Aggregate metrics JSON over [(name, class_counts, meter_traps)]
    rows; [extra] adds top-level integer fields. *)

