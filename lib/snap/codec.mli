(** The snapshot format's building blocks: a typed node tree with a
    canonical binary encoding, and typed field codecs.

    A component is declared once, as {!field}s with a name, a getter, a
    setter and a {!codec}; its encoder ({!write_record}), its checked
    decoder ({!load}), the topology comparison ({!topology}) and the leaf
    walk ({!walk}) all derive from that declaration.  Every codec carries
    its check, and reading a node that fails it raises {!Format_error}
    naming the field's path (e.g. ["cpus[0].pstate.nzcv: 16 outside
    0..15"]).  The machine's declarations are in {!Image}. *)

exception Format_error of string

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Format_error} with a formatted message. *)

(** {1 The node tree} *)

type node =
  | I of int64
  | B of bool
  | S of string
  | L of node list
  | R of (string * node) list  (** fields in fixed, writer-chosen order *)

val encode : node -> string
(** Canonical bytes: a tag, then big-endian payloads and lengths. *)

val decode : string -> node
(** @raise Format_error on a truncated, malformed or over-long input. *)

val get_i : node -> int64
val get_b : node -> bool
val get_l : node -> node list
val num : int -> node

(** {1 Codecs} *)

(** [Record], [Slots], [Into] and an [Opt] of those read into the value
    the reader already holds; the others read a fresh value. *)
type _ codec =
  | Int : int * int -> int codec  (** within [lo, hi] *)
  | Word : int -> int64 codec  (** a multiple of the given power of two *)
  | Bool : bool codec
  | Str : string codec
  | Bytes : int -> string codec  (** exactly n bytes *)
  | Enum : 'a enum -> 'a codec
  | Opt : 'a codec -> 'a option codec
      (** an empty or singleton list; read in place, its presence must
          match the value held *)
  | List : 'a codec -> 'a list codec
  | Array : int * 'a codec -> 'a array codec  (** exactly n elements *)
  | Pair : 'a codec * 'b codec -> ('a * 'b) codec
  | Triple : 'a codec * 'b codec * 'c codec -> ('a * 'b * 'c) codec
  | Record : 'r record -> 'r codec
  | Slots : ('r, 'a) slots -> 'r codec
  | Conv : ('a, 'b) conv -> 'a codec
  | Into : 'a into -> 'a codec  (** a custom codec reading in place *)

and 'a enum = { what : string; members : ('a * node) list }

and 'r record = { fields : 'r field list; zero : 'r option }
(** [zero] is where a record read as a fresh value starts. *)

and 'r field = F : ('r, 'a) fld -> 'r field

and ('r, 'a) fld = {
  name : string;
  codec : 'a codec;
  get : 'r -> 'a;
  set : ('r, 'a) set;
  topology : bool;  (** a difference is a topology mismatch, not state *)
}

and ('r, 'a) set =
  | Set of ('r -> 'a -> unit)
  | Update of ('r -> 'a -> 'r)  (** a field of an immutable record *)
  | In_place  (** the codec reads into [get r] itself *)
  | Skip  (** not read by {!load}: read by itself first, or a derived view *)

and ('r, 'a) slots = {
  len : 'r -> int;
  nth : 'r -> int -> 'a;
  set_nth : 'r -> int -> 'a -> unit;
  elt : 'a codec;
}
(** [len r] elements of a mutable [r], by index; a node list of another
    length is rejected. *)

and ('a, 'b) conv = { to_ : 'a -> 'b; of_ : 'b -> 'a; via : 'b codec }

and 'a into = { enc : 'a -> node; dec : Fault.Plan.t option -> 'a -> node -> 'a }
(** [dec plan current node]: [plan] is the restored fault plan. *)

val write : 'a codec -> 'a -> node
val read : Fault.Plan.t option -> 'a codec -> node -> 'a

(** {1 Declaring} *)

val fld :
  ?topology:bool -> string -> 'a codec -> ('r -> 'a) -> ('r, 'a) set -> ('r, 'a) fld

val field :
  ?topology:bool -> string -> 'a codec -> ('r -> 'a) -> ('r, 'a) set -> 'r field

val record : ?zero:'r -> 'r field list -> 'r codec
val int : int codec
(** Any int. *)

val nat : int codec
(** Non-negative. *)

val word : int64 codec
(** Any word. *)

val enum : string -> ('a * int) list -> 'a codec
(** Members with their int codes. *)

val indexed : string -> 'a list -> 'a codec
(** Members coded by position. *)

val fixed : int -> ('r -> int -> 'a) -> ('r -> int -> 'a -> unit) -> 'a codec -> 'r codec
(** [fixed n nth set_nth elt]: exactly [n] slots. *)

val each : 'a codec -> 'a array codec
(** One element per slot of an existing array (per vCPU: ncpus). *)

val conv : ('a -> 'b) -> ('b -> 'a) -> 'b codec -> 'a codec

(** {1 Deriving} *)

val write_record : 'r field list -> 'r -> node

val load : Fault.Plan.t option -> 'r field list -> 'r -> node -> 'r
(** Read every field not marked [Skip] into the record. *)

val read_named : Fault.Plan.t option -> ('r, 'a) fld -> node -> 'a
(** Read one field of a record node by itself. *)

val walk : 'r field list -> 'r -> (string * (unit -> unit)) list
(** Every int, word, bool and enumeration leaf {!load} writes into the
    record, by path, each with a thunk setting it to another value its
    codec accepts (the next in range or in the enumeration, wrapping).
    Topology and [Skip] fields and [Into] codecs are not walked. *)

val diff_node : string -> node -> node -> (string * string) option
(** The path of the first difference and a rendering of both sides. *)

val topology : string -> 'r field list -> node -> node -> (string * string) option
(** {!diff_node} over the fields marked [topology] only, searching
    records depth-first in declaration order. *)
