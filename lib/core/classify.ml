(* Register classification queries: the software-facing view of Tables 3, 4
   and 5.  The raw per-register classification lives with the register
   database (Arm.Sysreg.neve_class) because it is part of the architecture;
   this module answers the questions hypervisor software asks. *)

module Sysreg = Arm.Sysreg

type behaviour =
  | Deferred            (* reads and writes go to the deferred access page *)
  | Redirected of Sysreg.t      (* reads and writes go to the EL1 register *)
  | Cached_read_trap_write      (* reads from the page; writes trap *)
  | Always_trap
  | Untouched           (* NEVE does not change this access *)

(* The behaviour of a direct access from virtual EL2, given whether the
   guest hypervisor is VHE (NV1 clear) or not (NV1 set). *)
let behaviour ~guest_vhe (r : Sysreg.t) =
  match Sysreg.neve_class r with
  | Sysreg.NV_vm_reg -> Deferred
  | Sysreg.NV_redirect tgt | Sysreg.NV_redirect_vhe tgt -> Redirected tgt
  | Sysreg.NV_trap_on_write -> Cached_read_trap_write
  | Sysreg.NV_redirect_or_trap tgt ->
    if guest_vhe then Redirected tgt else Cached_read_trap_write
  | Sysreg.NV_timer_trap -> Always_trap
  | Sysreg.NV_none ->
    if Sysreg.min_el r = Arm.Pstate.EL2 then Always_trap else Untouched

let behaviour_name = function
  | Deferred -> "deferred"
  | Redirected t -> "redirected -> " ^ Sysreg.name t
  | Cached_read_trap_write -> "cached-read / trap-write"
  | Always_trap -> "always-trap"
  | Untouched -> "untouched"

(* Registers with an EL1 twin under redirection. *)
let redirected_pairs =
  List.filter_map
    (fun r ->
      match Sysreg.neve_class r with
      | Sysreg.NV_redirect tgt | Sysreg.NV_redirect_vhe tgt -> Some (r, tgt)
      | Sysreg.NV_redirect_or_trap tgt -> Some (r, tgt)
      | _ -> None)
    Sysreg.all

(* Count of traps NEVE eliminates for a given access trace: a helper for
   analysis tools and tests.  [accesses] is (register, is_read) pairs the
   guest hypervisor performs. *)
let eliminated_traps ~guest_vhe accesses =
  List.length
    (List.filter
       (fun (r, is_read) ->
         match behaviour ~guest_vhe r with
         | Deferred | Redirected _ -> true
         | Cached_read_trap_write -> is_read
         | Always_trap | Untouched -> false)
       accesses)

(* Pretty-print the full classification, used by `neve_sim classify`. *)
let pp_classification ppf () =
  List.iter
    (fun r ->
      let b = behaviour ~guest_vhe:false r in
      match b with
      | Untouched -> ()
      | _ ->
        Fmt.pf ppf "%-20s %s@." (Sysreg.name r) (behaviour_name b))
    Sysreg.all
