(** Ablation study: NEVE is three mechanisms (paper Section 6) —
    deferral, redirection and cached copies — and this study measures
    each one's contribution by disabling them independently in the
    simulated hardware. *)

module Machine = Hyp.Machine
module TR = Arm.Trap_rules

type variant = {
  label : string;
  mask : TR.nv2_mask;
}

type result = {
  r_label : string;
  r_traps : float;
  r_cycles : float;
}

val measure : ?vhe:bool -> ?iters:int -> variant -> result
(** A nested hypercall under one hardware variant. *)

val run : ?vhe:bool -> ?iters:int -> unit -> result list
val pp : Format.formatter -> result list -> unit
