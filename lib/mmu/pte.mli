(** Page-table descriptors, VMSAv8-64 style: 4 KB granule, levels 1..3,
    valid/table/block/page distinction, output address and access
    permissions. *)

type kind = Invalid | Table | Block | Page

type perms = {
  readable : bool;
  writable : bool;
  executable : bool;
}

val rw : perms
val rwx : perms
val ro : perms

type t = {
  kind : kind;
  output : int64;  (** next-level table or output block/page address *)
  perms : perms;
}

val invalid : t

val encode : level:int -> t -> int64
(** @raise Invalid_argument for a table descriptor at level 3 or a block
    descriptor at level 3. *)

val decode : level:int -> int64 -> t

val kind_name : kind -> string
val pp : Format.formatter -> t -> unit
