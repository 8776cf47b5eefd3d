(** A64 instruction encoding/decoding for the subset the paravirtualizer
    rewrites — what makes Section 4's "fully automated approach, for
    example by binary patching a guest hypervisor image" demonstrable. *)

val encode : Insn.t -> int
(** Encode a simulator instruction.  Partial: only forms that appear in
    hypervisor text are supported.
    @raise Invalid_argument otherwise. *)

type decoded =
  | D_insn of Insn.t
  | D_unknown of int  (** unrecognized word, preserved verbatim *)

val decode : int -> decoded
(** Decode one word, resolving VHE alias encodings (op1=5) back to
    [_EL12]/[_EL02] access forms. *)

val roundtrips : Insn.t -> bool
(** [decode (encode i) = i] — used by tests and the binary patcher. *)
