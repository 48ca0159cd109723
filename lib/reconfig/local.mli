(** Localized reconfiguration (paper §2, "later versions"):

    "it should often be possible to restrict participation to switches
    near the failing component, and to drop cells only when the path of
    their virtual circuit goes through a failed link."

    A scoped reconfiguration runs {!Proto}'s state machine unchanged;
    only its driver is scoped. Each initiator's configuration gets its
    own {!Proto.node} per switch, so the two endpoints of a failed link
    run independent configurations that never see each other's tags,
    and a switch may take part in both. The driver holds each switch's
    hop budget (a TTL): the initiator holds [radius], a switch that
    accepts an invitation holds its inviter's budget minus one, and a
    switch at budget 0 is shown no neighbours, so {!Proto} makes it a
    boundary leaf that reports its adjacency but invites no one.

    When the root's distribution reaches a participant ({!Proto}'s
    [Completed]), the participant {e merges}: it keeps the links of its
    previous topology that touch no switch of this configuration and
    unions in the root's collected region. Links wholly outside the
    region survive from the prior view; links out of the boundary are
    re-reported by the boundary switch that owns them — so the merge is
    exact whenever all physical changes lie within the region, which a
    radius of 1 already guarantees for a single link event. Merges
    commute because each one rewrites exactly the adjacency of its own
    configuration's members. *)

type outcome = {
  converged : bool;  (** every started configuration completed *)
  participants : int;  (** distinct switches that took part in any of them *)
  total_switches : int;
  messages : int;
  elapsed : Netsim.Time.t;  (** trigger to last completion *)
  region_correct : bool;
      (** every participant's merged view equals the true working
          topology *)
}

val run_after_failure :
  ?proc_delay:Netsim.Time.t ->
  ?radius:int ->
  ?scope:(int -> bool) ->
  ?obs:Obs.Sink.t ->
  Topo.Graph.t ->
  fail:int ->
  outcome
(** [run_after_failure g ~fail] kills link [fail] (which must be
    working and have at least one switch endpoint; a host attachment
    has a single initiator, a switch-to-switch link two) and runs one
    scoped reconfiguration from each initiating endpoint with the
    given [radius] (default 2). Every switch is assumed to hold the
    correct pre-failure topology (as a completed global
    reconfiguration leaves it). [proc_delay] defaults to the global
    runner's 100 us per message.

    [scope] (default: everyone) restricts participation by membership
    rather than distance: switches outside it are never invited, as if
    every link to them were a region boundary. Pod-local repair is
    [~scope:(Pods.in_pod pods ~pod) ~radius:max_int] — the flood
    covers the pod and stops at its edge, whatever the pod's diameter.
    Raises [Invalid_argument] if [radius] is negative or an initiator
    itself is out of scope. *)
