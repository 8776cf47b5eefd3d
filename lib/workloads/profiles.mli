(** The ten application workloads of the paper's Table 8, as exit-event
    profiles.

    Real traces are unavailable; each workload is modeled by the
    quantities that determine its virtualization overhead: native work per
    unit, work-proportional exit events, wall-time-proportional interrupt
    pressure (line-rate networking — the source of the superlinear
    blow-ups), and virtio arrival parameters feeding the
    notification-suppression model.  Per-event {e costs} are never stated
    here: they are measured on the simulated stacks.  The event mixes were
    calibrated once against Figure 2's shapes (see EXPERIMENTS.md). *)

type t = {
  name : string;
  work_cycles : float;          (** native cycles per unit of work *)
  hypercalls : int;
  ipis : int;
  irqs : int;                   (** work-proportional device interrupts *)
  irq_rate_per_mcycle : float;  (** wall-time-proportional pressure *)
  packets : int;                (** virtio packets per unit *)
  burst : int;
  spacing : float;              (** cycles between packets in a burst *)
  gap : float;                  (** cycles between bursts *)
  service : float;              (** backend service per packet (ARM) *)
  x86_speedup : float;          (** x86 native speed relative to ARM *)
}

val default : t

val all : t list
(** Figure 2's x-axis order. *)

val by_name : string -> t option
