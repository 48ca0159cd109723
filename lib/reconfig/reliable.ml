(* The transport split. Sender-side state (window, store, timer, acks)
   only ever moves through [post_back] and the resend half's
   [sched_local]/[cancel_local]; receiver-side state only through
   [post_fwd]. In a {!Netsim.Cluster} run the two ends live on
   different domains, so the loss draws are split too: [lost_fwd] is
   drawn where [transmit] runs (sender), [lost_back] where [receive]
   runs (receiver). *)
type resend = {
  sched_local : delay:Netsim.Time.t -> (unit -> unit) -> Netsim.Engine.event_id;
  cancel_local : Netsim.Engine.event_id -> unit;
  lost_fwd : unit -> bool;
  lost_back : unit -> bool;
  retransmit_after : Netsim.Time.t;
}

type 'msg t = {
  post_fwd : (unit -> unit) -> unit;
  post_back : (unit -> unit) -> unit;
  resend : resend option;
  window : int;
  deliver : 'msg -> unit;
  mutable store : 'msg array;
      (* what the channel may still send, slot [seq land (length - 1)]:
         [base .. next - 1] with a resend half, the held messages
         [highest_sent + 1 .. next - 1] without one. Allocated at the
         first store, doubled when full. *)
  mutable base : int;  (* oldest unacknowledged sequence *)
  mutable next : int;  (* next sequence to assign *)
  mutable highest_sent : int;  (* highest sequence ever transmitted *)
  mutable expected : int;  (* receiver: next in-order sequence *)
  mutable timer : Netsim.Engine.event_id;
      (* retransmit timer; [Engine.no_event] when disarmed *)
  mutable transmissions : int;
  mutable on_ack : unit -> unit;
      (* without a resend half: the one ack thunk of the channel. Set
         once, after the record: a recursive definition would allocate
         the record twice per channel. *)
  handle_ack : 'msg t -> int -> unit;
      (* always the toplevel [handle_ack] below. Reached through this
         field, it keeps [receive] out of the [let rec] group: a thunk
         built inside the group captures the group's environment too,
         a word more on every message and every ack. *)
}

let oldest_stored t =
  match t.resend with None -> t.highest_sent + 1 | Some _ -> t.base

let store t seq msg =
  let cap = Array.length t.store and oldest = oldest_stored t in
  if seq - oldest >= cap then begin
    let bigger = Array.make (max 4 (2 * cap)) msg in
    for s = oldest to seq - 1 do
      bigger.(s land (Array.length bigger - 1)) <- t.store.(s land (cap - 1))
    done;
    t.store <- bigger
  end;
  t.store.(seq land (Array.length t.store - 1)) <- msg

let stored t seq = t.store.(seq land (Array.length t.store - 1))

let receive t seq msg =
  if seq = t.expected then begin
    t.expected <- t.expected + 1;
    t.deliver msg
  end;
  (* Cumulative acknowledgment (itself droppable). Over a wire that
     keeps every cell and its order it acknowledges exactly the oldest
     outstanding message, so it needs no value. *)
  match t.resend with
  | None -> t.post_back t.on_ack
  | Some r ->
    let ack = t.expected in
    if not (r.lost_back ()) then t.post_back (fun () -> t.handle_ack t ack)

let rec arm_timer t =
  match t.resend with
  | Some r when t.timer = Netsim.Engine.no_event && t.base < t.next ->
    t.timer <-
      r.sched_local ~delay:r.retransmit_after (fun () ->
          t.timer <- Netsim.Engine.no_event;
          (* Go-back-N: resend the whole window from base. *)
          for seq = t.base to min t.next (t.base + t.window) - 1 do
            transmit t seq (stored t seq)
          done;
          arm_timer t)
  | _ -> ()

and transmit t seq msg =
  t.transmissions <- t.transmissions + 1;
  if seq > t.highest_sent then t.highest_sent <- seq;
  match t.resend with
  | Some r -> if not (r.lost_fwd ()) then t.post_fwd (fun () -> receive t seq msg)
  | None ->
    (* A wire without a resend half keeps every cell and its order, so
       each cell arrives as the receiver's next expected one: the
       thunk need not carry [seq]. *)
    t.post_fwd (fun () -> receive t t.expected msg)

and handle_ack t ack =
  if ack > t.base then begin
    t.base <- ack;
    (match t.resend with
     | Some r ->
       (* Cancelling [no_event] is a no-op, so no disarmed check needed. *)
       r.cancel_local t.timer;
       t.timer <- Netsim.Engine.no_event
     | None -> ());
    (* The window slid forward: transmit queued messages that now fit. *)
    let upto = min t.next (t.base + t.window) in
    for seq = max (t.highest_sent + 1) t.base to upto - 1 do
      transmit t seq (stored t seq)
    done;
    arm_timer t
  end

let create ~post_fwd ~post_back ~resend ~window ~deliver =
  if window < 1 then invalid_arg "Reliable.create: window >= 1";
  let t =
    {
      post_fwd;
      post_back;
      resend;
      window;
      deliver;
      store = [||];
      base = 0;
      next = 0;
      highest_sent = -1;
      expected = 0;
      timer = Netsim.Engine.no_event;
      transmissions = 0;
      on_ack = ignore;
      handle_ack;
    }
  in
  t.on_ack <- (fun () -> handle_ack t (t.base + 1));
  t

let send t msg =
  let seq = t.next in
  t.next <- seq + 1;
  let in_window = seq < t.base + t.window in
  (match t.resend with
   | Some _ -> store t seq msg
   | None -> if not in_window then store t seq msg);
  if in_window then transmit t seq msg;
  arm_timer t

let transmissions t = t.transmissions
let idle t = t.base = t.next
let retransmit_armed t = t.timer <> Netsim.Engine.no_event
