(** SLO-grade serving scenarios: virtio-net request streams on SMP
    nested guests — Apache/Memcached/MySQL profiles — with fault plans
    and live-migration rounds firing underneath, fanned out over the
    fleet engine.

    Per request the guest computes, churns the shared SMP stage-2
    (remaps through the full TLB-shootdown protocol racing reads from
    the other vCPU), sends virtio packets under notification
    suppression, and takes the response interrupt.  Sampled per request
    in simulated cycles: virtual-IRQ delivery (device_irq raised ->
    acknowledge completed) and request completion; reported as
    p50/p99/p999 per ARM configuration ({!Fleet.columns}).

    The aggregate is a pure function of (n, seed, requests,
    migrate_every) — byte-identical across reruns and shard counts. *)

val serve_profiles : string list
(** ["Apache"; "Memcached"; "MySQL"]. *)

val default_requests : int
val default_migrate_every : int

type spec = {
  sp_index : int;
  sp_seed : int64;
  sp_config : string;
  sp_col : Workloads.Scenario.arm_column;
  sp_profile : Workloads.Profiles.t;
}

val spec_of : seed:int -> int -> spec
(** Machine [i] gets config [i mod 5] and profile [i/5 mod 3]; its seed
    comes from [Shard.derive] (position-independent). *)

type result = {
  r_index : int;
  r_config : string;
  r_profile : string;
  r_requests : int;
  r_migrations : int;
  r_irq_drops : int;      (** device IRQs lost to the fault plan *)
  r_virq_lat : int list;  (** per-request virtual-IRQ delivery, cycles *)
  r_req_lat : int list;   (** per-request completion, cycles *)
  r_clean : bool;         (** shootdown/BBM checker clean *)
  r_digest : int64;
}

val run_spec :
  ?requests:int ->
  ?migrate_every:int ->
  ?expose:Expose.Policy.t ->
  spec ->
  result
(** [expose] (default {!Expose.Policy.none}) is the OoH grant set every
    machine of the fleet is created with; migration destinations carry
    it through the snapshot. *)

type per_config = {
  pc_name : string;
  pc_machines : int;
  pc_requests : int;
  pc_migrations : int;
  pc_irq_drops : int;
  pc_virq_p50 : int;
  pc_virq_p99 : int;
  pc_virq_p999 : int;
  pc_req_p50 : int;
  pc_req_p99 : int;
  pc_req_p999 : int;
}

type t = {
  s_n : int;
  s_seed : int;
  s_requests : int;
  s_migrate_every : int;
  s_expose : Expose.Policy.t;  (** the fleet-wide OoH grant set *)
  s_by_config : per_config list;
  s_clean : bool;       (** every machine's shootdown checker clean *)
  s_digest : int64;
  s_results : result array;
}

val run :
  ?shards:int ->
  ?requests:int ->
  ?migrate_every:int ->
  ?expose:Expose.Policy.t ->
  n:int ->
  seed:int ->
  unit ->
  t
(** Run [n] serving machines ({!spec_of}) on [shards] domains (default
    1) through [Shard.map]. *)

val json : t -> Json.t
(** Tail-latency SLO report, schema [neve-slo-report/1]: string-valued
    top-level fields (seed, digest, checker verdict, ...), then one row
    per configuration of integer metrics (percentile latencies, counts).
    No wall clock, no shard count, so it is byte-identical across
    reruns and shard counts. *)

val pp_summary : Format.formatter -> t -> unit
