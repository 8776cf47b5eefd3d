(* Virtio notification (kick) suppression model (Section 7.2).

   A frontend driver must notify (kick) the backend only when the backend
   is idle: "While the backend driver is busy, it tells the frontend driver
   that it can continue to send packets without further notification."
   Each kick is a VM exit.

   The consequence the paper highlights: the *faster* the backend drains
   the queue, the more often it is idle when the next packet arrives, so
   the more kicks — which is why Memcached on x86 (whose backend runs on
   hardware ~3x faster) takes more than four times as many exits as on
   NEVE, and ends up slower relative to native despite cheaper exits. *)

type t = {
  mutable kicks : int;          (* notifications sent (VM exits) *)
  mutable suppressed : int;     (* packets queued without notification *)
  mutable busy_until : float;   (* backend busy horizon, in cycles *)
}

let create () = { kicks = 0; suppressed = 0; busy_until = 0. }

(* Feed a packet arriving at absolute time [now]; the backend needs
   [service] cycles per packet.  Returns true when the packet required a
   kick. *)
let packet t ~now ~service =
  if now >= t.busy_until then begin
    (* backend idle: notification required; it starts draining now *)
    t.kicks <- t.kicks + 1;
    t.busy_until <- now +. service;
    true
  end
  else begin
    (* backend busy: packet is queued behind it, no notification *)
    t.suppressed <- t.suppressed + 1;
    t.busy_until <- t.busy_until +. service;
    false
  end

(* Run a bursty arrival process: [bursts] bursts of [burst] packets with
   [spacing] cycles between packets inside a burst and [gap] cycles between
   bursts.  Returns the number of kicks. *)
let run_bursts t ~bursts ~burst ~spacing ~gap ~service =
  let now = ref 0. in
  for _ = 1 to bursts do
    for _ = 1 to burst do
      ignore (packet t ~now:!now ~service);
      now := !now +. spacing
    done;
    now := !now +. gap
  done;
  t.kicks

(* Convenience: kicks for a packet stream on a backend of the given speed.
   [backend_speedup] scales the service time down (x86's faster hardware ->
   shorter service -> more kicks). *)
let kicks_for ~packets ~burst ~spacing ~gap ~service ~backend_speedup =
  let t = create () in
  let bursts = max 1 (packets / max 1 burst) in
  run_bursts t ~bursts ~burst ~spacing ~gap ~service:(service /. backend_speedup)
