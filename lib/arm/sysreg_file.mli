(** Hardware system-register storage: a flat [Bytes.t] of unboxed 8-byte
    slots keyed by the dense {!Sysreg.index} plus a dirty bitmap, with
    architectural reset values where they matter (MPIDR/MIDR
    identification, ICH_VTR's list-register count).  All operations are
    O(1) accesses with no boxing or write barrier on the store path. *)

type t = { values : Bytes.t; dirty : Bytes.t }

val reset_value : Sysreg.t -> int64

val create : unit -> t

val read : t -> Sysreg.t -> int64
(** Unwritten registers read their reset value. *)

val get_index : t -> int -> int64
(** Raw read by dense {!Sysreg.index} (serialization, compiled loops). *)

val set_index : t -> int -> int64 -> unit
(** Raw write by dense index; does not touch the dirty bitmap. *)

val write : t -> Sysreg.t -> int64 -> unit
(** Software write: ignored for {!Sysreg.read_only} registers. *)

val hw_write : t -> Sysreg.t -> int64 -> unit
(** Unchecked write for hardware-internal updates (exception entry setting
    ESR, the GIC updating status registers). *)

val reset : t -> unit

type mark
(** A file's values and dirty bitmap, as they were when marked (stored
    as the registers that differ from a {!reset} file). *)

val mark : t -> mark
val rewind : t -> mark -> unit
(** Put back the marked values and dirty bitmap; allocates nothing. *)

val copy_reg : src:t -> dst:t -> Sysreg.t -> unit
(** [copy_reg ~src ~dst r] is [hw_write dst r (read src r)], without
    boxing the value. *)

val copy : src:t -> dst:t -> Sysreg.t list -> unit
(** Copy a register set between files (host-side world switches). *)

val copy_indices : src:t -> dst:t -> int array -> unit
(** {!copy} over a precomputed dense-index array — no per-register
    dispatch, just an indexed loop. *)

val writable_index : int -> bool
(** Whether a software write ({!write}) to the register with this dense
    index takes effect. *)

val save_word : t -> int -> Memory.t -> base:int64 -> int -> unit
(** [save_word t i mem ~base off] is
    [Memory.write64 mem (base + off) (get_index t i)], without boxing the
    value. *)

val load_word : t -> int -> Memory.t -> base:int64 -> int -> unit
(** [load_word t i mem ~base off] is {!hw_write} of
    [Memory.read64 mem (base + off)] into the register with dense index
    [i], without boxing the value. *)

val save : t -> int array -> Memory.t -> base:int64 -> int array -> unit
(** [save t indices mem ~base offs] runs
    [save_word t indices.(k) mem ~base offs.(k)] for every [k], in order:
    the world-switch save loop as one word kernel.  Allocates nothing. *)

val restore : t -> int array -> Memory.t -> base:int64 -> int array -> unit
(** [restore t indices mem ~base offs] runs {!load_word} for each pair in
    order (hardware-write semantics: no writability check — callers
    modelling an MSR drop unwritable registers beforehand). *)

val holds : t -> Sysreg.t -> int64 -> bool
(** [holds t r v] is [read t r = v], without boxing the read. *)

val dump : t -> (Sysreg.t * int64) list
(** Written, non-zero registers in {!Sysreg.all} order, for debugging. *)
