(** The guest hypervisor: a KVM/ARM-shaped L1 hypervisor running
    deprivileged in virtual EL2.

    Its control flow is host-language code, but every architectural
    interaction is an instruction executed on the simulated CPU through
    {!Gaccess}, so which accesses trap is decided by the configuration
    under test while the code paths are identical across ARMv8.3 and NEVE
    runs.

    Non-VHE exit handling follows the split KVM design: virtual-EL2 entry
    -> read exit info -> save the nested VM and restore the host kernel ->
    eret to the kernel at vEL1 -> handle -> hvc back to vEL2 -> switch
    back -> eret to the nested VM.  VHE handles everything in vEL2, host
    state stays in (virtual) EL2 registers, VM state goes through [_EL12]
    and the VM timer through [_EL02]. *)

module Sysreg = Arm.Sysreg

type t = {
  ga : Gaccess.t;
  vcpu : Vcpu.t;  (** where the host leaves each exit's details *)
  vhe : bool;
  vm_ctx : int64;    (** its software struct holding the nested VM state *)
  host_ctx : int64;  (** its host kernel's saved context *)
  mutable used_lrs : int;
  mutable cntvoff : int64;
  mutable virqs : int array;
  mutable virqs_len : int;
      (** interrupts awaiting a free list register, oldest first, in
          [virqs.(0 .. virqs_len - 1)] ({!pending_virqs}); drained on
          entry *)
  resume : Bytes.t;
      (** where the nested VM resumes, as words ({!nested_elr},
          {!nested_spsr}); the exit path reads them without boxing *)
  mutable exits_handled : int;
  mutable debug_active : bool;  (** the nested VM is being debugged *)

  mutable pmu_active : bool;    (** perf events counting in the VM *)

  mutable on_mmio : (addr:int64 -> is_write:bool -> unit) option;
      (** the device backend for emulated MMIO exits *)
}

val vector_base : int64
(** The vEL2 vector the host jumps to on injection (symbolic). *)

val create : Gaccess.t -> vcpu:Vcpu.t -> t

val pending_virqs : t -> int list
(** The interrupts awaiting a free list register, oldest first. *)

val set_pending_virqs : t -> int list -> unit

val nested_elr : t -> int64
(** The ELR the nested VM resumes at. *)

val nested_spsr : t -> int64
val set_nested_elr : t -> int64 -> unit
val set_nested_spsr : t -> int64 -> unit

type mark
(** Every mutable field as when marked, including the access funnel's
    pending corruption; its compiled world-switch sequences are a cache
    and are kept. *)

val mark : t -> mark
val rewind : t -> mark -> unit

val handle_exit : t -> Vcpu.nested_exit -> unit
(** The full exit path; installed as the host's [on_vel2_entry] hook. *)

val launch_nested : t -> entry:int64 -> unit
(** First entry into the nested VM (no prior exit to unwind). *)
