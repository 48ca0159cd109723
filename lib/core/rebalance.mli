(** Load-balancing circuit re-routing (paper §2):

    "A more speculative option is to reroute circuits to balance the
    load on the network. The mechanics of rerouting are no more
    difficult in this case than in the earlier ones. However,
    algorithms to determine when and where circuits should be moved
    have yet to be considered."

    This module supplies such an algorithm for best-effort circuits: a
    greedy hill-climb that repeatedly picks the most-loaded link and
    moves one circuit off it onto an alternative path, provided the
    alternative is at most [max_stretch] hops longer than the
    circuit's shortest route and strictly lowers the bottleneck it
    touches. Guaranteed circuits are left to bandwidth central, whose
    capacity bookkeeping already spreads them. *)

val link_loads : Network.t -> (int * int) list
(** [(link_id, circuits)] for every working switch-to-switch and host
    link, counting best-effort circuits routed across it. *)

type stats = {
  max_load : int;
  mean_load : float;
  stddev : float;
}

val load_stats : Network.t -> stats
(** Over working switch-to-switch links only (host links cannot be
    rebalanced away). *)

val rebalance : ?max_stretch:int -> Network.t -> int
(** Run the hill-climb; returns the number of circuits moved.
    [max_stretch] (default 1) bounds the detour versus the circuit's
    current shortest path; at most 10 moves per circuit, a safety
    valve. Every move keeps the circuit's routing tables
    consistent (uninstall/reinstall, as §2's re-routing does). *)
