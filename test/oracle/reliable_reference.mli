(** The go-back-N control channel as it was when a lossless wire had a
    channel of its own: a [Hashtbl] of every unacknowledged message, a
    loss draw per transmission and per acknowledgment, and a
    retransmission timer cancelled and re-armed on every ack. Kept as
    the model that [test_reconfig]'s differential checks
    {!Reconfig.Reliable} against: the same deliveries at the same
    times, the same transmissions, timers and loss draws. Do not use
    it in simulators. *)

type 'msg t

type wire = {
  sched_local : delay:Netsim.Time.t -> (unit -> unit) -> Netsim.Engine.event_id;
      (** Cancellable scheduling at the sender: retransmit timers. *)
  cancel_local : Netsim.Engine.event_id -> unit;
  post_fwd : (unit -> unit) -> unit;
      (** Run a thunk at the receiver, one wire latency later. *)
  post_back : (unit -> unit) -> unit;
      (** Run a thunk back at the sender, one wire latency later. *)
  lost_fwd : unit -> bool;  (** Per-transmission drop draw, at the sender. *)
  lost_back : unit -> bool;
      (** Per-acknowledgment drop draw, at the receiver. *)
}

val create_over :
  wire:wire ->
  retransmit_after:Netsim.Time.t ->
  window:int ->
  deliver:('msg -> unit) ->
  'msg t
(** One direction of one link over [wire]; raises [Invalid_argument]
    if [window < 1]. *)

val send : 'msg t -> 'msg -> unit
val transmissions : 'msg t -> int
val idle : 'msg t -> bool
val retransmit_armed : 'msg t -> bool
