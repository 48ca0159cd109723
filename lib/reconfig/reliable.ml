(* The transport split. Sender-side state (window buffer, timers,
   acks) only ever moves through [sched_local]/[cancel_local]/
   [post_back]; receiver-side state only through [post_fwd]. In a
   {!Netsim.Cluster} run the two ends live on different domains, so
   the loss draws are split too: [lost_fwd] is drawn where [transmit]
   runs (sender), [lost_back] where [receive] runs (receiver). *)
type wire = {
  sched_local : delay:Netsim.Time.t -> (unit -> unit) -> Netsim.Engine.event_id;
  cancel_local : Netsim.Engine.event_id -> unit;
  post_fwd : (unit -> unit) -> unit;
  post_back : (unit -> unit) -> unit;
  lost_fwd : unit -> bool;
  lost_back : unit -> bool;
}

type 'msg full = {
  wire : wire;
  retransmit_after : Netsim.Time.t;
  window : int;
  deliver : 'msg -> unit;
  buf : (int, 'msg) Hashtbl.t;  (* unacknowledged, by sequence *)
  mutable base : int;  (* oldest unacknowledged sequence *)
  mutable next : int;  (* next sequence to assign *)
  mutable highest_sent : int;  (* highest sequence ever transmitted *)
  mutable expected : int;  (* receiver: next in-order sequence *)
  mutable timer : Netsim.Engine.event_id;
      (* retransmit timer; [Engine.no_event] when disarmed *)
  mutable transmissions : int;
}

(* The same window over a wire that loses nothing and keeps order:
   every transmission arrives, so nothing is kept for resending and
   every ack acknowledges exactly the oldest outstanding message.
   [held] is the window's backlog — sequences [l_base + window] up to
   [l_next - 1], oldest first; everything below went out when sent or
   when an ack made room. [on_ack] is the one ack thunk of the
   channel: it needs no value, since an ack only slides [l_base] by
   one, and it touches sender state only. *)
type 'msg lossless = {
  post_fwd : (unit -> unit) -> unit;
  post_back : (unit -> unit) -> unit;
  l_window : int;
  l_deliver : 'msg -> unit;
  held : 'msg Queue.t;
  mutable l_base : int;
  mutable l_next : int;
  on_ack : unit -> unit;
}

type 'msg t = Full of 'msg full | Lossless of 'msg lossless

let create_over ~wire ~retransmit_after ~window ~deliver =
  if window < 1 then invalid_arg "Reliable.create_over: window >= 1";
  Full
    {
      wire;
      retransmit_after;
      window;
      deliver;
      buf = Hashtbl.create 16;
      base = 0;
      next = 0;
      highest_sent = -1;
      expected = 0;
      timer = Netsim.Engine.no_event;
      transmissions = 0;
    }

let rec arm_timer t =
  if t.timer = Netsim.Engine.no_event && t.base < t.next then
    t.timer <-
      t.wire.sched_local ~delay:t.retransmit_after (fun () ->
          t.timer <- Netsim.Engine.no_event;
          (* Go-back-N: resend the whole window from base. *)
          let upto = min t.next (t.base + t.window) in
          for seq = t.base to upto - 1 do
            transmit t seq
          done;
          arm_timer t)

and transmit t seq =
  match Hashtbl.find_opt t.buf seq with
  | None -> ()  (* already acknowledged *)
  | Some msg ->
    t.transmissions <- t.transmissions + 1;
    if seq > t.highest_sent then t.highest_sent <- seq;
    if not (t.wire.lost_fwd ()) then
      t.wire.post_fwd (fun () -> receive t seq msg)

and receive t seq msg =
  if seq = t.expected then begin
    t.expected <- t.expected + 1;
    t.deliver msg
  end;
  (* Cumulative acknowledgment (itself droppable). *)
  let ack = t.expected in
  if not (t.wire.lost_back ()) then
    t.wire.post_back (fun () -> handle_ack t ack)

and handle_ack t ack =
  if ack > t.base then begin
    for seq = t.base to ack - 1 do
      Hashtbl.remove t.buf seq
    done;
    t.base <- ack;
    (* Cancelling [no_event] is a no-op, so no disarmed check needed. *)
    t.wire.cancel_local t.timer;
    t.timer <- Netsim.Engine.no_event;
    (* The window slid forward: transmit queued messages that now fit. *)
    let upto = min t.next (t.base + t.window) in
    for seq = max (t.highest_sent + 1) t.base to upto - 1 do
      transmit t seq
    done;
    arm_timer t
  end

(* The receiving end delivers on arrival: the wire keeps order, so
   each arrival is the next in sequence. *)
let transmit_lossless l msg =
  l.post_fwd (fun () ->
      l.l_deliver msg;
      l.post_back l.on_ack)

let create_lossless ~post_fwd ~post_back ~window ~deliver =
  if window < 1 then invalid_arg "Reliable.create_lossless: window >= 1";
  (* The ack of the oldest outstanding message makes room for exactly
     the oldest held one, as [handle_ack] sends it. *)
  let rec l =
    {
      post_fwd;
      post_back;
      l_window = window;
      l_deliver = deliver;
      held = Queue.create ();
      l_base = 0;
      l_next = 0;
      on_ack =
        (fun () ->
          l.l_base <- l.l_base + 1;
          if not (Queue.is_empty l.held) then
            transmit_lossless l (Queue.pop l.held));
    }
  in
  Lossless l

let send t msg =
  match t with
  | Full t ->
    let seq = t.next in
    t.next <- seq + 1;
    Hashtbl.add t.buf seq msg;
    if seq < t.base + t.window then transmit t seq;
    arm_timer t
  | Lossless l ->
    let seq = l.l_next in
    l.l_next <- seq + 1;
    if seq < l.l_base + l.l_window then transmit_lossless l msg
    else Queue.push msg l.held

let transmissions = function
  | Full t -> t.transmissions
  | Lossless l -> l.l_next - Queue.length l.held

let idle = function
  | Full t -> t.base = t.next
  | Lossless l -> l.l_base = l.l_next

let retransmit_armed = function
  | Full t -> t.timer <> Netsim.Engine.no_event
  | Lossless _ -> false
