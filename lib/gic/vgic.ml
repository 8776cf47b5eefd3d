(* The GIC virtual interface: list registers and their derived status
   registers, plus the virtual CPU interface the VM sees.

   This module is a pure codec over ICH_* register *values*; the hypervisor
   reads and writes those values through the simulated CPU so that every
   access is routed (and, from a guest hypervisor, trapped or deferred) by
   the architecture rules.  The "hardware" behaviour — a VM acknowledging
   and completing a virtual interrupt directly against the list registers,
   with no trap — is what makes the Virtual EOI microbenchmark cost 71
   cycles in every configuration (Tables 1 and 6). *)

(* --- ICH_LR<n>_EL2 encoding (GICv3):
   [63:62] state, [61] HW, [60] group, [55:48] priority,
   [44:32] physical intid (when HW), [31:0] virtual intid. *)

type lr = {
  lr_state : Irq.state;
  lr_hw : bool;
  lr_group1 : bool;
  lr_priority : int;
  lr_pintid : int;
  lr_vintid : int;
}

let empty_lr =
  { lr_state = Irq.Inactive; lr_hw = false; lr_group1 = true;
    lr_priority = 0xa0; lr_pintid = 0; lr_vintid = 0 }

let encode_lr l =
  let ( ||| ) = Int64.logor in
  Int64.shift_left (Int64.of_int (Irq.state_bits l.lr_state)) 62
  ||| (if l.lr_hw then Int64.shift_left 1L 61 else 0L)
  ||| (if l.lr_group1 then Int64.shift_left 1L 60 else 0L)
  ||| Int64.shift_left (Int64.of_int (l.lr_priority land 0xff)) 48
  ||| Int64.shift_left (Int64.of_int (l.lr_pintid land 0x1fff)) 32
  ||| Int64.of_int (l.lr_vintid land 0xffff_ffff)

let decode_lr v =
  let field lo width =
    Int64.to_int
      (Int64.logand (Int64.shift_right_logical v lo)
         (Int64.sub (Int64.shift_left 1L width) 1L))
  in
  {
    lr_state = Irq.state_of_bits (field 62 2);
    lr_hw = field 61 1 = 1;
    lr_group1 = field 60 1 = 1;
    lr_priority = field 48 8;
    lr_pintid = field 32 13;
    lr_vintid = Int64.to_int (Int64.logand v 0xffff_ffffL);
  }

(* ICH_HCR_EL2 bits. *)
let ich_hcr_en = 1L

(* --- derived status registers, computed from an LR value array --- *)

(* ICH_EISR: bit n set when LR n holds an EOI'd (inactive, valid vintid)
   entry — simplified: inactive with a nonzero vintid. *)
let compute_eisr lrs =
  Array.to_list lrs
  |> List.mapi (fun i v ->
      let l = decode_lr v in
      if l.lr_state = Irq.Inactive && l.lr_vintid <> 0 then 1 lsl i else 0)
  |> List.fold_left ( lor ) 0
  |> Int64.of_int

(* ICH_ELRSR: bit n set when LR n is empty (usable). *)
let compute_elrsr lrs =
  Array.to_list lrs
  |> List.mapi (fun i v ->
      let l = decode_lr v in
      if l.lr_state = Irq.Inactive && l.lr_vintid = 0 then 1 lsl i else 0)
  |> List.fold_left ( lor ) 0
  |> Int64.of_int

(* ICH_MISR: bit 0 (EOI) set when any EISR bit is set — enough for the
   maintenance-interrupt model. *)
let compute_misr lrs = if compute_eisr lrs <> 0L then 1L else 0L

(* --- virtual CPU interface semantics over an LR array --- *)

(* Is an LR value free (empty slot)?  Zero, or inactive with no vintid
   left behind. *)
let[@inline] lr_is_free v =
  (* the state field [63:62] reads Inactive exactly when it is 0 *)
  v = 0L
  || Int64.shift_right_logical v 62 = 0L
     && Int64.logand v 0xffff_ffffL = 0L

(* Find a free LR index. *)
let find_free_lr lrs =
  let n = Array.length lrs in
  let rec go i =
    if i >= n then None
    else
      let l = decode_lr lrs.(i) in
      if l.lr_state = Irq.Inactive && l.lr_vintid = 0 then Some i else go (i + 1)
  in
  go 0

(* Inject a virtual interrupt: place it pending in a free LR.  Returns the
   LR index used, or None if all LRs are full (the hypervisor then needs a
   maintenance interrupt — not exercised by the paper's benchmarks). *)
let inject lrs ~vintid ?(priority = 0xa0) () =
  match find_free_lr lrs with
  | None -> None
  | Some i ->
    lrs.(i) <-
      encode_lr { empty_lr with lr_state = Irq.Pending; lr_vintid = vintid;
                                lr_priority = priority };
    if !Trace.on then
      Trace.emit ~a0:(Int64.of_int vintid) ~a1:(Int64.of_int i)
        Trace.Gic_inject;
    Some i

(* The VM acknowledges the highest-priority pending virtual interrupt:
   hardware updates the LR, no trap. *)
let v_acknowledge lrs =
  let best = ref None in
  Array.iteri
    (fun i v ->
      let l = decode_lr v in
      if l.lr_state = Irq.Pending then
        match !best with
        | Some (_, bl) when bl.lr_priority <= l.lr_priority -> ()
        | _ -> best := Some (i, l))
    lrs;
  match !best with
  | None -> None
  | Some (i, l) ->
    lrs.(i) <- encode_lr { l with lr_state = Irq.Active };
    if !Trace.on then
      Trace.emit ~a0:(Int64.of_int l.lr_vintid) ~a1:(Int64.of_int i)
        Trace.Gic_ack;
    Some l.lr_vintid

(* The VM completes (EOIs) a virtual interrupt: hardware updates the LR,
   no trap.  Returns true if the vintid was found active. *)
let v_eoi lrs ~vintid =
  let found = ref false in
  Array.iteri
    (fun i v ->
      let l = decode_lr v in
      if (not !found) && l.lr_vintid = vintid
         && (l.lr_state = Irq.Active || l.lr_state = Irq.Pending_and_active)
      then begin
        found := true;
        (* deactivate; clear the vintid so the slot reads as empty *)
        let s = Irq.deactivate l.lr_state in
        let l' =
          if s = Irq.Inactive then empty_lr else { l with lr_state = s }
        in
        lrs.(i) <- encode_lr l'
      end)
    lrs;
  if !found && !Trace.on then
    Trace.emit ~a0:(Int64.of_int vintid) Trace.Gic_eoi;
  !found

let pending_count lrs =
  Array.fold_left
    (fun acc v ->
      let l = decode_lr v in
      if l.lr_state = Irq.Pending || l.lr_state = Irq.Pending_and_active then
        acc + 1
      else acc)
    0 lrs

let pp_lr ppf v =
  let l = decode_lr v in
  Fmt.pf ppf "LR{v%d %s prio=%d%s}" l.lr_vintid (Irq.state_name l.lr_state)
    l.lr_priority
    (if l.lr_hw then " hw" else "")
