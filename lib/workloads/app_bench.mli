(** Figure 2: application benchmark performance normalized to native.

    Per-event costs are measured by running operations through the full
    simulated stacks (the same machinery as the microbenchmarks); a
    workload's overhead composes them with its profile:

    {[ overhead = (1 + base + work_event_cycles / work) * inflation ]}

    where inflation [1/(1 - irq_rate * c_irq)] models wall-time
    proportional interrupt pressure — interrupts keep arriving while the
    system is slowed, compounding into the paper's beyond-40x blow-ups on
    ARMv8.3 network workloads.  Virtio kick counts come from
    {!Virtio}, reproducing the Memcached anomaly. *)

module Machine = Hyp.Machine

(** Measured per-event costs for one column. *)
type op_costs = {
  c_hypercall : float;
  c_io : float;   (** one virtio kick *)
  c_ipi : float;
  c_irq : float;  (** one device interrupt delivered + acked + EOId *)
}

val overhead : Scenario.column -> op_costs -> Profiles.t -> float

type cell = { column : string; value : float }
type row = { workload : string; cells : cell list }

val figure2 : ?columns:(string * Scenario.column) list -> unit -> row list
(** The full figure: 10 workloads x 7 configurations. *)

val pp_figure2_chart : Format.formatter -> row list -> unit
(** ASCII bars, one per (workload, column), the way the paper draws it. *)

val pp_figure2 : Format.formatter -> row list -> unit
