(** The snapshot format: typed field declarations and the one interpreter
    of them, in both directions.

    A component is declared once, as {!field}s with a name, a getter, a
    setter and a {!codec}; the encoder ({!write_record}), the checked
    decoder ({!load}), the comparison ({!diff}, {!topology}) and the leaf
    walk ({!walk}) all derive from that declaration and work on the
    image's bytes directly.

    The bytes: every value is a node, a tag and big-endian payloads —
    ['I'] and 8 bytes (an int or a word), ['B'] and one byte (nonzero is
    true), ['S'], a 4-byte length and the bytes, ['L'], a 4-byte count
    and the elements, ['R'], a 4-byte count and each field as a
    length-prefixed name and its node.  A record's fields are written in
    declaration order and read by name, the first field of that name
    (in order, unless the image moved it), so reordered, duplicated and
    extra fields read the same whichever way they were written.

    Every codec carries its check, and a value that fails it raises
    {!Format_error} naming the field's path (e.g.
    ["cpus[0].pstate.nzcv: 16 outside 0..15"]).  The machine's
    declarations are in {!Image}. *)

exception Format_error of string

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Format_error} with a formatted message. *)

(** {1 Bytes} *)

type out
(** An image being written: a growable buffer, reused from one image to
    the next. *)

val out : unit -> out

val put_int : out -> int -> unit

val put_word_at : out -> Bytes.t -> int -> unit
(** [put_word_at o b off] writes the native-endian word of [b] at byte
    [off] as a word node, unboxed. *)

val put_bool : out -> bool -> unit

val put_list : out -> int -> unit
(** The head of a list node of [n] elements; the caller writes them. *)

val put_list_of : out -> (out -> int) -> unit
(** A list node whose elements [f] writes, returning how many. *)

val put_record : out -> int -> unit
(** The head of a record node of [n] fields; the caller writes each as
    {!put_name} and a node. *)

val put_name : out -> string -> unit

type input = { s : string; mutable pos : int }
(** An image being read: bytes {!validate} accepted, and the node the
    reader is at.  A reader leaves [pos] at the end of the node it read. *)

val validate : string -> input
(** Check the bytes' structure — truncation, implausible lengths, bad
    tags, trailing bytes, in that order along the bytes — allocating
    nothing but the input.
    @raise Format_error naming the byte. *)

val skip : input -> unit
(** Move past the node at [pos]. *)

val list_node : input -> int
(** The count of the list at [pos], moving to its first element.
    @raise Format_error unless the node is a list. *)

val word_pair : input -> align:int -> bad:string -> int
(** The node at [pos] as a pair of words: checks that it is a list of two
    nodes (else [Format_error bad]), that the second and then the first
    is a word, and that the first is a multiple of [align] (a power of
    two up to 256); returns the byte offset of the first word's payload
    (the second's is 9 bytes on) and moves past the pair. *)

(** {1 Codecs} *)

(** How an enumeration member is written: a code or a name. *)
type key = Code of int | Name of string

(** [Record], [Slots], [Words], [Into] and an [Opt] of those read into
    the value the reader already holds; the others read a fresh value. *)
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
  | Words : int * ('r -> Bytes.t) -> 'r codec
      (** the first n native-endian words of a buffer (a register
          file), moved unboxed: a list of n words *)
  | Conv : ('a, 'b) conv -> 'a codec
  | Into : 'a into -> 'a codec  (** a custom codec reading in place *)

and 'a enum = { what : string; members : ('a * key) list }

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
(** [len r] elements of a mutable [r], by index; a list of another length
    is rejected. *)

and ('a, 'b) conv = { to_ : 'a -> 'b; of_ : 'b -> 'a; via : 'b codec }

and 'a into = { enc : out -> 'a -> unit; dec : Fault.Plan.t option -> 'a -> input -> 'a }
(** [enc] writes one node; [dec plan current input] reads the node at
    [input.pos] and leaves [pos] after it.  [plan] is the restored fault
    plan. *)

val write : out -> 'a codec -> 'a -> unit
val read : Fault.Plan.t option -> 'a codec -> input -> 'a
(** Read a fresh value from the node at [pos]. *)

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

val words : int -> ('r -> Bytes.t) -> 'r codec
(** [words n buf]: the first [n] native-endian words of [buf r]. *)

val each : 'a codec -> 'a array codec
(** One element per slot of an existing array (per vCPU: ncpus). *)

val conv : ('a -> 'b) -> ('b -> 'a) -> 'b codec -> 'a codec

(** {1 Deriving} *)

val to_string : out -> 'r field list -> 'r -> string
(** The image of a declared record: its canonical bytes, written into the
    buffer and copied out as one string of exactly their length. *)

val load : Fault.Plan.t option -> 'r field list -> 'r -> input -> 'r
(** Read every field not marked [Skip] from the record node at [pos]
    into the record. *)

val read_named : Fault.Plan.t option -> ('r, 'a) fld -> input -> 'a
(** Read one field of the record node at [pos] by itself; [pos] is left
    where it was. *)

val walk : 'r field list -> 'r -> (string * (unit -> unit)) list
(** Every int, word, bool and enumeration leaf {!load} writes into the
    record, by path, each with a thunk setting it to another value its
    codec accepts (the next in range or in the enumeration, wrapping).
    Topology and [Skip] fields and [Into] codecs are not walked. *)

val diff : string -> string -> (string * string) option
(** The path of the first difference between two images and a rendering
    of both sides (["0x5 vs 0x6"], ["2 vs 4 elements"],
    ["field \"a\" vs \"b\""]), searching depth-first in image order. *)

val topology : 'r field list -> string -> string -> (string * string) option
(** {!diff} over the fields marked [topology] only, searching records
    depth-first in declaration order. *)
