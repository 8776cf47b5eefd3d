(* The deferred access page (Section 6.1).

   A page of normal memory, named by VNCR_EL2.BADDR, in which the hardware
   stores the values of VM system registers while NEVE is enabled.  Each
   register has a well-defined 8-byte slot (Arm.Sysreg.vncr_offset).

   The host hypervisor:
   - populates the page with the virtual-EL2 register values before running
     the guest hypervisor;
   - reads the page when it needs those values (e.g. on a trapped eret, to
     load the nested VM's state into hardware);
   - refreshes cached copies (trap-on-write registers) after emulating a
     trapped write. *)

module Sysreg = Arm.Sysreg
module Memory = Arm.Memory
module Sysreg_file = Arm.Sysreg_file

type t = {
  base : int64;          (* physical address, page-aligned *)
  mem : Memory.t;
  enabled : int64;       (* VNCR_EL2 pointing here, Enable set *)
}

exception Unmapped_register of Sysreg.t

let create mem ~base =
  if Int64.logand base 0xfffL <> 0L then
    invalid_arg "Deferred_page.create: base must be page-aligned";
  Memory.zero_range mem ~start:base ~len:(Int64.of_int Sysreg.page_size);
  { base; mem; enabled = Vncr.encode (Vncr.v ~baddr:base ~enable:true) }

let slot_off r =
  let off = Sysreg.vncr_slot r in
  if off < 0 then raise (Unmapped_register r) else off

let has_slot = Sysreg.has_vncr_offset

let read t r = Memory.read64 t.mem (Int64.add t.base (Int64.of_int (slot_off r)))

let write t r v =
  Memory.write64 t.mem (Int64.add t.base (Int64.of_int (slot_off r))) v

(* [write] of a register file's word, unboxed. *)
let write_from t r (src : Sysreg_file.t) =
  Sysreg_file.save_word src (Sysreg.index r) t.mem ~base:t.base (slot_off r)

(* [read t r = Sysreg_file.read file r], compared in place. *)
let holds t r (file : Sysreg_file.t) =
  Memory.holds_word t.mem ~base:t.base (slot_off r) file.Sysreg_file.values
    (Sysreg.index r)

(* The layout as a flat (register, page offset) array: populate/drain run
   on every virtual-EL2 entry and trapped eret, so they iterate this
   instead of re-deriving each slot offset from the layout list. *)
let layout_len = List.length Sysreg.vncr_layout

let layout_slots : (Sysreg.t * int64) array =
  Array.of_list
    (List.map
       (fun r ->
         match Sysreg.vncr_offset r with
         | Some off -> (r, Int64.of_int off)
         | None -> assert false)
       Sysreg.vncr_layout)

(* Populate the page from a register-valued function (typically the
   virtual-EL2 state the host hypervisor maintains for the vCPU). *)
let populate t ~read_virtual =
  for i = 0 to layout_len - 1 do
    let r, off = Array.unsafe_get layout_slots i in
    Memory.write64 t.mem (Int64.add t.base off) (read_virtual r)
  done;
  if !Trace.on then
    Trace.emit ~a0:(Int64.of_int layout_len) ~a1:t.base Trace.Page_populate

(* Drain the page back into a register sink (typically the virtual-EL2
   state), e.g. when the guest hypervisor is descheduled or erets into the
   nested VM and the host needs the authoritative values. *)
let drain t ~write_virtual =
  for i = 0 to layout_len - 1 do
    let r, off = Array.unsafe_get layout_slots i in
    write_virtual r (Memory.read64 t.mem (Int64.add t.base off))
  done;
  if !Trace.on then
    Trace.emit ~a0:(Int64.of_int layout_len) ~a1:t.base Trace.Page_drain

(* The same two copies between the page and a vCPU's virtual register
   files, as word kernels: each slot moves as an unboxed word instead of
   a boxed value through a per-slot closure.  EL2-level registers live in
   [el2], the rest in [el1]; slots are visited in layout order. *)
let layout_idx = Array.of_list (List.map Sysreg.index Sysreg.vncr_layout)

let layout_off = Array.map (fun (_, off) -> Int64.to_int off) layout_slots

let layout_el2 =
  Array.of_list
    (List.map (fun r -> Sysreg.min_el r = Arm.Pstate.EL2) Sysreg.vncr_layout)

let populate_from t ~el2 ~el1 =
  for i = 0 to layout_len - 1 do
    Sysreg_file.save_word
      (if Array.unsafe_get layout_el2 i then el2 else el1)
      (Array.unsafe_get layout_idx i) t.mem ~base:t.base
      (Array.unsafe_get layout_off i)
  done;
  if !Trace.on then
    Trace.emit ~a0:(Int64.of_int layout_len) ~a1:t.base Trace.Page_populate

let drain_into t ~el2 ~el1 ~skip =
  for i = 0 to layout_len - 1 do
    let idx = Array.unsafe_get layout_idx i in
    if not skip.(idx) then
      Sysreg_file.load_word
        (if Array.unsafe_get layout_el2 i then el2 else el1)
        idx t.mem ~base:t.base (Array.unsafe_get layout_off i)
  done;
  if !Trace.on then
    Trace.emit ~a0:(Int64.of_int layout_len) ~a1:t.base Trace.Page_drain

let vncr_value t ~enable =
  if enable then t.enabled else Vncr.encode (Vncr.v ~baddr:t.base ~enable)

let pp ppf t = Fmt.pf ppf "deferred-page@0x%Lx" t.base
