(** The kvm-unit-test microbenchmarks (paper Section 5, Tables 1, 6, 7):
    Hypercall, Device I/O, Virtual IPI and Virtual EOI, each run end to
    end through a full simulated stack. *)

module Machine = Hyp.Machine

type benchmark = Hypercall | Device_io | Virtual_ipi | Virtual_eoi

val all : benchmark list
val name : benchmark -> string

type result = {
  bench : benchmark;
  column : string;
  cycles : float;  (** mean cycles per operation *)
  traps : float;   (** mean traps to the host hypervisor per operation *)
}

val virtio_mmio_base : int64

val arm_op : Machine.t -> benchmark -> unit -> unit
(** One iteration of a benchmark as guest-side operations. *)

val measure_arm : ?iters:int -> Scenario.arm_column -> benchmark -> result
val measure_x86 : ?iters:int -> Scenario.x86_column -> benchmark -> result

type table_row = {
  row_bench : benchmark;
  cells : (string * result) list;  (** column label, result *)
}

val arm_columns_table1 : (string * Scenario.arm_column) list
val arm_columns_neve : (string * Scenario.arm_column) list
val x86_columns : (string * Scenario.x86_column) list

val table1 : ?iters:int -> unit -> table_row list
(** VM and nested VM on ARMv8.3 (non-VHE and VHE) and x86. *)

val table6 : ?iters:int -> unit -> table_row list
(** Adds the NEVE columns. *)

val table7 : ?iters:int -> unit -> table_row list
(** Same measurement; Table 7 reads the trap counts. *)
