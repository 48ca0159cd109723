(** Ping-based link monitoring (paper §2).

    Switch software regularly pings each neighbor; too many
    consecutive misses turn a working link dead, and a dead link must
    answer pings cleanly through a skeptic-determined probation before
    it is declared working again. Declared transitions are what
    trigger reconfigurations. *)

type params = {
  interval : Netsim.Time.t;  (** ping period *)
  miss_threshold : int;  (** consecutive misses before declaring dead *)
  skeptic : Skeptic.params;
}

val default_params : params
(** 50 ms pings, 2 misses to declare dead — the AN1-flavoured numbers
    that put fault detection near 100 ms. *)

type t

val create :
  engine:Netsim.Engine.t ->
  params:params ->
  link_up:(unit -> bool) ->
  on_transition:(up:bool -> Netsim.Time.t -> unit) ->
  t
(** [link_up] samples the true (physical) link state; [on_transition]
    fires whenever the monitor changes its declared state. The monitor
    starts declaring the link working. *)

val start : t -> unit
(** Begin pinging. No-op if already running. *)

val stop : t -> unit
(** Retire the pending ping timer and stop re-arming it: the tick
    still fires when due but pings nothing and posts nothing, so an
    engine whose only remaining work was the monitor's tick drains to
    quiescence within one interval. [start] may be called again later,
    even before the retired tick is due; declared state and skeptic
    history are kept. *)

val declared_up : t -> bool
val transitions : t -> int
(** Number of declared state changes so far. *)

val skeptic_level : t -> int
(** The skeptic's current suspicion level for this link (after decay,
    at the engine's current time). *)

val probation_wait : t -> Netsim.Time.t
(** The wait demanded at the most recent probation opening — recomputed
    each time probation (re)opens, so after a relapse it reflects the
    bumped skeptic level (doubling per relapse until the cap). *)
