(** Fuzzer programs: guest-hypervisor instruction sequences with
    structured control flow.

    Programs are built and shrunk as lists of {e snippets} — straight-line
    instruction groups plus branches that skip whole snippets — so that
    every sublist is again a well-formed program: loads and stores keep
    the address-materializing [mov] they depend on, and no branch can land
    in the middle of such a pair.  Flattening resolves branch targets to
    word offsets; the flattened, encoded form is what runs and what a
    checked-in repro file stores. *)

type branch_kind =
  | K_b            (** unconditional *)
  | K_cbz of int   (** branch if xN = 0 *)
  | K_cbnz of int  (** branch if xN <> 0 *)

type snippet =
  | Straight of Arm.Insn.t list
      (** self-contained: any sublist of snippets stays well-formed *)
  | Skip of branch_kind * int
      (** one branch instruction skipping the next [n] snippets *)

type t = snippet list

val to_words : t -> int array
(** [Encode.encode] over {!insns}. *)

val insns : t -> Arm.Insn.t list
(** The instructions of the program in order, [Skip] snippets resolved to
    word-offset branches.  A skip past the end of the program lands on
    the halt marker. *)

(** {1 Repro files}

    A repro is a self-contained text file: comment lines ([#]) carrying
    provenance and the divergence report, then one lowercase hex A64 word
    per line.  Replaying needs no generator state — just the words. *)

val save : path:string -> header:string list -> int array -> unit
(** Write a repro file; each [header] line is emitted as a comment, and
    each word is annotated with its disassembly. *)

type repro = {
  r_path : string;
  r_header : string list;  (** comment lines, ["# "] stripped *)
  r_words : int array;
}

val load : path:string -> repro
(** @raise Failure on a line that is neither a comment nor a hex word. *)
