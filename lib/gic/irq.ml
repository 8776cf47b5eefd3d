(* Interrupt identifiers and per-interrupt state, GIC style. *)

type kind = SGI | PPI | SPI

(* Interrupt id ranges per the GIC architecture. *)
let kind_of_intid id =
  if id < 0 then
    Fault.Error.sim_bug
      (Fault.Error.Bad_intid (Printf.sprintf "Irq.kind_of_intid: %d" id))
  else if id < 16 then SGI
  else if id < 32 then PPI
  else SPI

let kind_name = function SGI -> "SGI" | PPI -> "PPI" | SPI -> "SPI"

(* The device interrupt the workloads raise (a virtio-net SPI). *)
let virtio_net_spi = 40

type state = Inactive | Pending | Active | Pending_and_active

let state_name = function
  | Inactive -> "inactive"
  | Pending -> "pending"
  | Active -> "active"
  | Pending_and_active -> "pending+active"

(* GICv3 list-register state field encoding (bits [63:62]). *)
let state_bits = function
  | Inactive -> 0
  | Pending -> 1
  | Active -> 2
  | Pending_and_active -> 3

let state_of_bits = function
  | 0 -> Inactive
  | 1 -> Pending
  | 2 -> Active
  | 3 -> Pending_and_active
  | b ->
    Fault.Error.sim_bug
      (Fault.Error.Invariant_broken
         (Printf.sprintf "Irq.state_of_bits: %d outside [0,3]" b))

let add_pending = function
  | Inactive -> Pending
  | Pending -> Pending
  | Active -> Pending_and_active
  | Pending_and_active -> Pending_and_active

let activate = function
  | Pending -> Active
  | Pending_and_active -> Active (* re-pend handled by distributor *)
  | s -> s

let deactivate = function
  | Active -> Inactive
  | Pending_and_active -> Pending
  | s -> s

let pp ppf (id, s) =
  Fmt.pf ppf "%s%d[%s]" (kind_name (kind_of_intid id)) id (state_name s)
