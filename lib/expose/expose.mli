(** Out-of-Hypervisor-style selective feature exposure: the per-feature
    grant policy L0 hands the guest hypervisor at [Machine.create].

    A granted facility's guest-hypervisor accesses run trap-free
    (routed as {e exposed} instead of trapped to L0); ungranted
    facilities keep their existing trap-and-emulate, NEVE, or paravirt
    path.  The policy is immutable for the life of the machine and
    travels with snapshots. *)

module Policy : sig
  type feature =
    | Dirty_log  (** direct stage-2 dirty-bitmap reads and
                     write-protect management for migration *)
    | Timer      (** direct [CNTHP_*]/[CNTHV_*]/[CNTVOFF_EL2]
                     programming *)
    | Gic_lrs    (** direct vGIC list-register, [ICH_HCR_EL2] and
                     [ICH_VMCR_EL2] writes *)

  val all_features : feature list
  val feature_name : feature -> string

  type t

  val none : t
  val all : t
  val of_list : feature list -> t
  val mem : t -> feature -> bool
  val is_none : t -> bool
  val equal : t -> t -> bool
  val to_list : t -> feature list
  val names : t -> string list

  val to_bits : t -> int
  (** Stable serialized form (part of the snapshot format). *)

  val of_bits : int -> t option
  (** Inverse of {!to_bits}; [None] on bits naming no known feature. *)

  val to_string : t -> string
  (** ["none"] or a comma-joined grant list, e.g. ["dirty-log,timer"]. *)

  val parse : string -> (t, string) result
  (** Parse a comma-separated grant list (the [--expose] argument).
      [""] and ["none"] are the empty policy; unknown names are an
      [Error] naming the offender and the known vocabulary. *)

  val pp : Format.formatter -> t -> unit
end
