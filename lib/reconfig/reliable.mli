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
    messages leaves one ack round trip apart per window. *)

type 'msg t

type resend = {
  sched_local : delay:Netsim.Time.t -> (unit -> unit) -> unit;
      (** Scheduling at the {e sender}: retransmit timers. *)
  lost_fwd : unit -> bool;
      (** Per-transmission drop draw, made at the sender. *)
  lost_back : unit -> bool;
      (** Per-acknowledgment drop draw, made at the receiver. *)
  retransmit_after : Netsim.Time.t;
      (** Timeout before the window is resent from its oldest
          unacknowledged message. *)
}
(** The half of a channel that copes with a wire that loses cells. *)

val create :
  post_fwd:((unit -> unit) -> unit) ->
  post_back:((unit -> unit) -> unit) ->
  resend:resend option ->
  window:int ->
  deliver:('msg -> unit) ->
  'msg t
(** One direction of one link: [deliver] fires exactly once per sent
    message, in order, at the receiving end (inside a [post_fwd]
    thunk). [post_fwd] runs a thunk at the {e receiver} one wire
    latency later, [post_back] one back at the {e sender}. The
    channel's state is split along them: everything reached through
    [post_back] and [resend] belongs to the sender, everything reached
    through [post_fwd] to the receiver, so the two ends may live on
    different {!Netsim.Cluster} partitions (and domains), with the
    cross-partition hops carried by [Cluster.send] at the wire
    latency. [window] is the go-back-N window. Raises
    [Invalid_argument] if [window < 1].

    With [resend = Some r], the channel draws [r.lost_fwd] per
    transmission and [r.lost_back] per acknowledgment, keeps every
    unacknowledged message, and arms one timer of [r.retransmit_after]
    while messages are outstanding; every acknowledgment that slides
    the window retires it (it fires when due and does nothing) and
    arms a fresh one.

    [resend = None] is only for a wire that never loses a cell, keeps
    order, and brings each acknowledgment back before
    [retransmit_after] would have fired (twice the wire latency below
    it). Over such a wire every timer would be retired before it
    is due, so the channel without a resend half makes the same
    deliveries at the same times, in the same order among other
    events, with the same {!transmissions} and {!idle}; it draws
    nothing, schedules no timer and keeps only the messages its window
    holds back. Over any other wire it is another channel: it models
    neither the wire's losses nor the timer's retransmissions. *)

val send : 'msg t -> 'msg -> unit
(** Queue a message; it is retransmitted until acknowledged. *)

val transmissions : 'msg t -> int
(** Wire transmissions used so far (>= messages sent when the wire
    drops). *)

val idle : 'msg t -> bool
(** No unacknowledged messages outstanding. *)

val retransmit_armed : 'msg t -> bool
(** A live retransmission timer is armed; always [false] without a
    resend half. The invariant the tests assert: an {!idle} channel
    has it disarmed, so a quiescent control plane posts nothing more
    once its retired timers have fired. *)
