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

(* --- the virtual CPU interface on raw LR words ---

   Acknowledge and EOI look at three fields of an LR and rewrite its
   state, so they work on the words themselves: no decoded record per
   LR.  Rewriting the state keeps the other fields and clears the bits
   outside every field, as [encode_lr { (decode_lr v) with lr_state }]
   does. *)

let[@inline] lr_state_bits v = Int64.to_int (Int64.shift_right_logical v 62)
let[@inline] lr_priority_of v = Int64.to_int (Int64.shift_right_logical v 48) land 0xff
let[@inline] lr_vintid_of v = Int64.to_int (Int64.logand v 0xffff_ffffL)

(* HW, group, priority, physical and virtual intid *)
let lr_fields = 0x30ff_1fff_ffff_ffffL

let[@inline] lr_with_state v bits =
  Int64.logor (Int64.logand v lr_fields) (Int64.shift_left (Int64.of_int bits) 62)

(* [encode_lr empty_lr] *)
let empty_lr_word = 0x10a0_0000_0000_0000L

let pending_bits = 1
let active_bits = 2
let pending_and_active_bits = 3

(* [encode_lr { empty_lr with lr_state = Pending; lr_vintid }], the
   empty word with the pending state (0x50a0...: state 1 in [63:62],
   group 1, priority 0xa0) and the vintid in [31:0] *)
let pending_lr_word = 0x50a0_0000_0000_0000L

let[@inline] pending_lr vintid =
  Int64.logor pending_lr_word (Int64.of_int (vintid land 0xffff_ffff))

(* The pending LR with the lowest priority value, the first of equals. *)
let[@inline] better_pending v ~than = lr_state_bits v = pending_bits && lr_priority_of v < than

(* An LR EOI of [vintid] completes: it holds [vintid], active. *)
let[@inline] completes v ~vintid =
  lr_vintid_of v = vintid
  &&
  let s = lr_state_bits v in
  s = active_bits || s = pending_and_active_bits

(* Deactivate: active becomes empty (the vintid cleared, so the slot
   reads as free), pending-and-active becomes pending. *)
let[@inline] deactivated v =
  if lr_state_bits v = active_bits then empty_lr_word
  else lr_with_state v pending_bits

let[@inline] trace_ack v i =
  if !Trace.on then
    Trace.emit ~a0:(Int64.of_int (lr_vintid_of v)) ~a1:(Int64.of_int i)
      Trace.Gic_ack

let[@inline] trace_eoi found vintid =
  if found && !Trace.on then Trace.emit ~a0:(Int64.of_int vintid) Trace.Gic_eoi

(* The VM acknowledges the highest-priority pending virtual interrupt:
   hardware updates the LR, no trap. *)
let v_acknowledge lrs =
  let best = ref (-1) and prio = ref 0x100 in
  for i = 0 to Array.length lrs - 1 do
    if better_pending lrs.(i) ~than:!prio then begin
      best := i;
      prio := lr_priority_of lrs.(i)
    end
  done;
  if !best < 0 then None
  else begin
    let v = lrs.(!best) in
    lrs.(!best) <- lr_with_state v active_bits;
    trace_ack v !best;
    Some (lr_vintid_of v)
  end

(* The VM completes (EOIs) a virtual interrupt: hardware updates the LR,
   no trap.  Returns true if the vintid was found active. *)
let v_eoi lrs ~vintid =
  let found = ref false in
  for i = 0 to Array.length lrs - 1 do
    if (not !found) && completes lrs.(i) ~vintid then begin
      found := true;
      lrs.(i) <- deactivated lrs.(i)
    end
  done;
  trace_eoi !found vintid;
  !found

(* The same two operations on a CPU's own list registers: the first
   [lrs] of ICH_LR<n>_EL2 in a register file, read and written in place
   as unboxed words.  Each of the [lrs] registers is hardware-written
   (its dirty bit set), as writing the whole LR array back would. *)

external get_word : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_word : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* ICH_LR<n>_EL2 has dense index [lr0 + n] *)
let lr0 = Arm.Sysreg.index (Arm.Sysreg.ICH_LR_EL2 0)

let[@inline] lr_get (f : Arm.Sysreg_file.t) i =
  get_word f.Arm.Sysreg_file.values ((lr0 + i) * 8)

let[@inline] lr_set (f : Arm.Sysreg_file.t) i v =
  set_word f.Arm.Sysreg_file.values ((lr0 + i) * 8) v

(* Mark the [lrs] registers written, after checking that they exist:
   the word accesses are unchecked. *)
let touch (f : Arm.Sysreg_file.t) ~lrs =
  if lrs < 0 || lrs > Arm.Sysreg.lr_count then
    invalid_arg (Printf.sprintf "Vgic: %d list registers" lrs);
  for i = 0 to lrs - 1 do
    Bytes.unsafe_set f.Arm.Sysreg_file.dirty (lr0 + i) '\001'
  done

let acknowledge_in f ~lrs =
  touch f ~lrs;
  let best = ref (-1) and prio = ref 0x100 in
  for i = 0 to lrs - 1 do
    if better_pending (lr_get f i) ~than:!prio then begin
      best := i;
      prio := lr_priority_of (lr_get f i)
    end
  done;
  if !best < 0 then -1
  else begin
    let v = lr_get f !best in
    lr_set f !best (lr_with_state v active_bits);
    trace_ack v !best;
    lr_vintid_of v
  end

let eoi_in f ~lrs ~vintid =
  touch f ~lrs;
  let found = ref false in
  for i = 0 to lrs - 1 do
    if (not !found) && completes (lr_get f i) ~vintid then begin
      found := true;
      lr_set f i (deactivated (lr_get f i))
    end
  done;
  trace_eoi !found vintid;
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
