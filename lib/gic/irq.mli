(** Interrupt identifiers and per-interrupt state, GIC style. *)

type kind = SGI | PPI | SPI

val kind_of_intid : int -> kind
(** SGI: 0-15, PPI: 16-31, SPI: 32+.
    @raise Invalid_argument on negative ids. *)

val kind_name : kind -> string

val virtio_net_spi : int
(** The device interrupt the workloads raise (a virtio-net SPI). *)

type state = Inactive | Pending | Active | Pending_and_active

val state_name : state -> string

val state_bits : state -> int
(** GICv3 list-register state encoding (bits [63:62]). *)

val state_of_bits : int -> state

val add_pending : state -> state
val activate : state -> state
val deactivate : state -> state

val pp : Format.formatter -> int * state -> unit
