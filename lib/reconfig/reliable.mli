(** Reliable control channels for the reconfiguration protocol.

    The paper's algorithm (and AN1's firmware) assumes switches
    exchange control messages over reliable, in-order links; the
    physical wire is not. This module supplies the missing substrate:
    a go-back-N sender per directed link with sequence numbers,
    cumulative acknowledgments, and retransmission timers, so that the
    three-phase protocol runs correctly even when the wire drops
    control cells.

    {!Runner.run} carries every control message over these channels;
    with [control_loss > 0] it demonstrates that the protocol survives
    heavy control-plane loss at the cost of retransmission delay — and
    that without this layer it deadlocks (E27).

    At zero loss the channel is not a plain latency: its window still
    binds. A sender with more than [window] messages outstanding holds
    the rest back until acknowledgments make room, so a burst of
    messages leaves one ack round trip apart per window. Over such a
    wire {!create_lossless} gives the same deliveries at the same
    times without the retransmission machinery. *)

type 'msg t

type wire = {
  sched_local : delay:Netsim.Time.t -> (unit -> unit) -> Netsim.Engine.event_id;
      (** Cancellable scheduling at the {e sender}: retransmit timers. *)
  cancel_local : Netsim.Engine.event_id -> unit;
  post_fwd : (unit -> unit) -> unit;
      (** Run a thunk at the {e receiver}, one wire latency later. *)
  post_back : (unit -> unit) -> unit;
      (** Run a thunk back at the {e sender}, one wire latency later. *)
  lost_fwd : unit -> bool;
      (** Per-transmission drop draw, made at the sender. *)
  lost_back : unit -> bool;
      (** Per-acknowledgment drop draw, made at the receiver. *)
}
(** How the channel touches the world. The protocol core partitions
    its state: everything reached through [sched_local]/[post_back]
    belongs to the sender, everything reached through [post_fwd] to
    the receiver — so the two ends of a channel may live on different
    {!Netsim.Cluster} partitions (and domains), with the cross-
    partition hops carried by [Cluster.send] at the wire latency. *)

val create_over :
  wire:wire ->
  retransmit_after:Netsim.Time.t ->
  window:int ->
  deliver:('msg -> unit) ->
  'msg t
(** One direction of one link over [wire]: [deliver] fires exactly
    once per sent message, in order, at the receiving end (inside a
    [post_fwd] thunk). [window] is the go-back-N window and
    [retransmit_after] the timeout before resending. Raises
    [Invalid_argument] if [window < 1]. *)

val create_lossless :
  post_fwd:((unit -> unit) -> unit) ->
  post_back:((unit -> unit) -> unit) ->
  window:int ->
  deliver:('msg -> unit) ->
  'msg t
(** The same go-back-N window for a wire that never loses a cell and
    keeps order, with [post_fwd]/[post_back] as in {!wire}. Sequence
    numbers, acknowledgments and the window are kept; loss draws,
    retransmission timers and the table of unacknowledged messages
    are not — only the messages the window holds back wait, oldest
    first. Each message costs one forward and one backward event, as
    in {!create_over}.

    It is observably the same channel as {!create_over} at zero loss
    when twice the wire latency is below [retransmit_after]: every
    acknowledgment then cancels the timer before it fires, so that
    channel never retransmits either. Deliveries, their times and
    their order among other events, {!transmissions} and {!idle}
    agree; {!retransmit_armed} is always [false]. Raises
    [Invalid_argument] if [window < 1]. *)

val send : 'msg t -> 'msg -> unit
(** Queue a message; it is retransmitted until acknowledged. *)

val transmissions : 'msg t -> int
(** Wire transmissions used so far (>= messages sent when the wire
    drops). *)

val idle : 'msg t -> bool
(** No unacknowledged messages outstanding. *)

val retransmit_armed : 'msg t -> bool
(** The retransmission timer currently holds a scheduled event. The
    invariant the tests assert: an {!idle} channel has it disarmed, so
    a quiescent control plane leaves nothing pending on the engine. *)
