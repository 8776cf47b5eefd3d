(** Virtio notification (kick) suppression model (paper Section 7.2).

    A frontend kicks the backend only when the backend is idle; each kick
    is a VM exit.  Consequence: the {e faster} the backend drains, the
    more often it is idle when the next packet arrives, the more kicks —
    why Memcached on 3x-faster x86 hardware takes >4x the exits of NEVE
    and ends up relatively slower despite cheaper exits. *)

type t = {
  mutable kicks : int;       (** notifications sent (VM exits) *)
  mutable suppressed : int;  (** packets queued without notification *)
  mutable busy_until : float;
}

val create : unit -> t

val packet : t -> now:float -> service:float -> bool
(** Feed one packet arriving at absolute time [now]; true when it
    required a kick. *)

val kicks_for :
  packets:int -> burst:int -> spacing:float -> gap:float -> service:float ->
  backend_speedup:float -> int
(** Kicks for a packet stream; [backend_speedup] shortens the service
    time (x86's faster hardware). *)
