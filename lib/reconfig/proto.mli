(** The three-phase reconfiguration protocol state machine (paper §2).

    Each switch runs one {!node}. The runner delivers messages and
    reports actions back; the node logic itself is pure message
    handling, which keeps it testable without an event engine.

    Phases, as in the paper:
    - {e propagation}: the initiator roots a spanning tree by flooding
      invitations; a switch accepts the first invitation (becoming a
      child of the inviter) and declines the rest;
    - {e collection}: topology fragments flow up the tree; when the
      root has heard from every child it knows the whole topology;
    - {e distribution}: the full topology flows back down.

    Overlapping reconfigurations are resolved by tags: a switch joins
    any configuration with a larger tag than its current one, aborting
    its previous activity. A smaller-tagged invitation is answered with
    {!message.Reject} carrying the newer tag, so an initiator that has
    been isolated from the winning configuration (the healed-partition
    case) restarts with an epoch above everything either side saw
    instead of hanging. *)

(** A topology is a strictly increasing [int array] of the link ids of
    working switch links and host attachments, opaque to this module.
    Arrays passed in or out are never mutated, so they may be shared. *)

val union : int array -> int array -> int array
(** [union a b] merges two topologies in one linear pass; it may return
    [a] or [b] itself when the other is empty. *)

type message =
  | Invite of Tag.t
  | Ack of Tag.t * bool  (** [true] = accepted, sender became our child *)
  | Report of Tag.t * int array * int
      (** collection, child to parent: the subtree's topology and the
          number of local edges its switches reported, summed up the
          tree — the payload size line cards are charged for *)
  | Distribute of Tag.t * int array  (** distribution, parent to child *)
  | Reject of Tag.t * Tag.t
      (** [(stale, newer)]: the invite carrying [stale] lost to a
          configuration tagged [newer] that is no longer propagating.
          Sent back so the inviter can restart above [newer] — without
          it, an initiator on the low-epoch side of a healed partition
          waits forever for Acks that will never come. *)

type node

val create_node : id:int -> node

val node_id : node -> int
val current_tag : node -> Tag.t
val parent : node -> int option
val children : node -> int list

val completed : node -> (Tag.t * int array) option
(** Once the distribution phase has reached this node: the tag of the
    finished reconfiguration and the full topology it learned. *)

(** What the node asks its environment to do. *)
type action =
  | Send of { dst : int; msg : message }
  | Completed of Tag.t

type env = {
  neighbors : unit -> int array;
      (** switches adjacent over working links, per this node's local
          knowledge at this instant, in ascending (neighbor, link)
          order with parallel links repeated. The node reads the array
          during the call and never retains it, so the environment may
          hand back a cached or shared buffer. *)
  local_edges : unit -> int array;
      (** this node's own working adjacency (switch links and host
          attachments) as a topology, which the node may keep *)
}

val initiate : node -> env -> action list
(** React to a local link state change: start a new reconfiguration
    with a fresh tag (paper: epoch one greater than the largest
    seen). *)

val handle : node -> env -> from:int -> message -> action list
(** Process one received message. *)
