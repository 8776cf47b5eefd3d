(** The exit-status vocabulary shared by every neve_sim subcommand.

    [ok] (0) — success.  [fault] (1) — a detected fault: architectural
    divergence, invariant violation, anonymous crash, migration
    non-convergence or state difference, unrecovered scenario, or
    determinism break.  [timeout] (2) — a deliberate sim-cycle budget
    timeout ([--max-cycles]).

    The driver builds each subcommand's EXIT STATUS man section from
    {!fault_doc}/{!timeout_doc}, and the README's "Exit codes" table
    documents the same three rows; a test greps the rendered help
    against the table so the views cannot drift apart. *)

val fault : int
val timeout : int

val fault_doc : string
(** Man-page prose for the [fault] status (cmdliner markup). *)

val timeout_doc : string
(** Man-page prose for the [timeout] status (cmdliner markup). *)

val table : (int * string) list
(** [(code, doc)] rows, ascending. *)
