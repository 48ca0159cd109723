(* The transport split. Sender-side state (window buffer, timers,
   acks) only ever moves through [sched_local]/[post_back];
   receiver-side state only through [post_fwd]. In a
   {!Netsim.Cluster} run the two ends live on different domains, so
   the loss draws are split too: [lost_fwd] is drawn where [transmit]
   runs (sender), [lost_back] where [receive] runs (receiver). *)
type wire = {
  sched_local : delay:Netsim.Time.t -> (unit -> unit) -> unit;
  post_fwd : (unit -> unit) -> unit;
  post_back : (unit -> unit) -> unit;
  lost_fwd : unit -> bool;
  lost_back : unit -> bool;
}

type 'msg t = {
  wire : wire;
  retransmit_after : Netsim.Time.t;
  window : int;
  deliver : 'msg -> unit;
  buf : (int, 'msg) Hashtbl.t;  (* unacknowledged, by sequence *)
  mutable base : int;  (* oldest unacknowledged sequence *)
  mutable next : int;  (* next sequence to assign *)
  mutable highest_sent : int;  (* highest sequence ever transmitted *)
  mutable expected : int;  (* receiver: next in-order sequence *)
  mutable armed : bool;  (* a retransmit timer is live *)
  mutable stamp : int;  (* the live timer's; disarming bumps it *)
  mutable transmissions : int;
}

let create_over ~wire ~retransmit_after ~window ~deliver =
  if window < 1 then invalid_arg "Reliable.create_over: window >= 1";
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
    armed = false;
    stamp = 0;
    transmissions = 0;
  }

let rec arm_timer t =
  if (not t.armed) && t.base < t.next then begin
    t.armed <- true;
    let stamp = t.stamp in
    t.wire.sched_local ~delay:t.retransmit_after (fun () ->
        if stamp = t.stamp then begin
          t.armed <- false;
          (* Go-back-N: resend the whole window from base. *)
          let upto = min t.next (t.base + t.window) in
          for seq = t.base to upto - 1 do
            transmit t seq
          done;
          arm_timer t
        end)
  end

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
    if t.armed then begin
      t.armed <- false;
      t.stamp <- t.stamp + 1
    end;
    (* The window slid forward: transmit queued messages that now fit. *)
    let upto = min t.next (t.base + t.window) in
    for seq = max (t.highest_sent + 1) t.base to upto - 1 do
      transmit t seq
    done;
    arm_timer t
  end

let send t msg =
  let seq = t.next in
  t.next <- seq + 1;
  Hashtbl.add t.buf seq msg;
  if seq < t.base + t.window then transmit t seq;
  arm_timer t

let transmissions t = t.transmissions
let idle t = t.base = t.next
let retransmit_armed t = t.armed
