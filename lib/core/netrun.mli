(** End-to-end data-plane simulation of an AN2 network.

    Each switch is modelled as a cut-through element driven by its own
    cell-slot clock: in every slot it first serves the guaranteed
    connections its frame schedule assigns to that slot (§4), then
    gives leftover input/output ports to best-effort circuits gated by
    per-link per-VC credits (§5). Best-effort cells contend for the
    leftover crossbar ports by 3-iteration parallel iterative matching
    ({!Matching.Pim}) over port-level requests, with round-robin among
    the circuits that share a matched port pair. That slot is the
    fabric kernel {!Fabric.Hybrid_switch.run_slot}, the one E22's
    hybrid switch runs, with circuits as its flows and credits gating
    best-effort eligibility. The idle slot loop allocates nothing.

    Used for the guaranteed latency/jitter bound (E6), guaranteed
    buffer occupancy under clock skew (E7), and the failover and
    multimedia examples. *)

type params = {
  cell_time : Netsim.Time.t;  (** slot length, 681 ns at 622 Mb/s *)
  crossbar_delay : Netsim.Time.t;  (** 2 us cut-through *)
  synchronized : bool;
      (** true: all switch clocks run at exactly the same rate
          (telephone-network style); false: each switch's clock is
          skewed by up to [skew_ppm] *)
  skew_ppm : int;
  seed : int;
}

val default_params : params

val be_credits : int
(** Per-VC buffers (credits) per link for best-effort circuits:
    64. *)

(** Traffic sources attached to circuits. *)
type source =
  | Cbr of Network.vc
      (** emits exactly the circuit's reserved cells per frame, evenly
          spaced — the network controller's rate enforcement (§5) *)
  | Saturated_be of Network.vc  (** always has a cell to send *)
  | Paced_be of Network.vc * float
      (** Bernoulli arrivals at this fraction of link rate *)
  | Packets_be of Network.vc * float * int
      (** the host controller path (§1): packets of the given byte
          size arrive at the given fraction of link rate, are
          segmented into cells by {!Host.segment}, carried best
          effort, and reassembled at the destination controller;
          packet latency spans first-cell emission to last-cell
          delivery *)

type vc_stats = {
  sent : int;
  delivered : int;
  dropped : int;  (** cells lost to link/switch failures *)
  mean_latency_us : float;
  p99_latency_us : float;
  max_latency_us : float;
  jitter_us : float;  (** max minus min end-to-end latency *)
  packets_sent : int;  (** packet sources only; 0 otherwise *)
  packets_delivered : int;
      (** packets fully reassembled at the destination controller *)
  packet_mean_latency_us : float;
  window_delivered : int array;
      (** cells delivered per tenth of the run — the recovery curve
          around a failure *)
}

type event =
  | Fail_link of int
  | Fail_switch of int
  | Reroute_be
      (** reroute every best-effort circuit whose path crosses a dead
          link; schedule it at failure time + reconfiguration time to
          model the outage window *)
  | Reroute_guaranteed of Bandwidth_central.t
      (** re-admit broken guaranteed circuits through bandwidth
          central *)

type result = {
  per_vc : (int * vc_stats) list;  (** keyed by vc id *)
  max_guaranteed_backlog : int;
      (** worst per-line-card guaranteed-cell occupancy observed, in
          cells (the paper bounds it by 2 frames synchronized, ~4
          unsynchronized) *)
  guaranteed_backlog_frames : float;  (** same, in frames *)
  dark_circuits : int;
      (** circuits whose last reroute attempt failed (typically because
          the failure partitioned their endpoints): they stop serving
          and drop every cell until a later reroute succeeds. Also
          counted on the [netrun.dark_circuits] obs counter as each
          circuit goes dark. *)
}

val run :
  ?obs:Obs.Sink.t ->
  ?heartbeat:Netsim.Time.t * Obs.Flight.t ->
  ?partitions:int ->
  ?domains:int ->
  Network.t ->
  params ->
  sources:source list ->
  ?events:(Netsim.Time.t * event) list ->
  duration:Netsim.Time.t ->
  unit ->
  result
(** The switches always run on a {!Netsim.Cluster} of [partitions]
    (default 1) engines: {!Topo.Partition.assign} splits them (clamped
    to the switch count), each group gets its own engine, hosts share
    their switch's partition, and every cell or credit crossing a
    partition rides its link's latency, which is >= the cluster
    lookahead by construction. [domains] (default 1) bounds the worker
    domains; {b for a fixed [partitions] the result is identical for
    every [domains]} — all mutable state is owned by exactly one
    partition. One partition draws all randomness from the one stream
    seeded by [params.seed], byte-identical to earlier versions; a
    multi-partition run draws its PIM and source-pacing randomness from
    per-switch/per-source streams, so its (equally deterministic)
    numbers differ from the one-partition stream's.
    Raises [Invalid_argument] if [partitions < 1] or [domains < 1], if
    a multi-partition split has no positive cross-partition lookahead,
    if [events] are combined with [partitions > 1] — mid-run
    topology mutation and rerouting need a single partition, where
    they run as plain engine events on partition 0 —
    if two sources name the same circuit, or if a circuit has no path
    or its path visits a switch twice (a reroute that would produce
    such a path raises too).

    With an enabled [obs] sink, a multi-partition run gives each
    partition its own sink (fed to the cluster, so the [Obs.Parprof]
    window profiler and cross-partition flow tracing are live) and
    merges metrics and trace rings back into [obs] in partition order
    after the run; one partition feeds [obs] straight to its engine.
    [heartbeat = (every, flight)] appends a merged-registry snapshot
    to [flight] every [every] simulated nanoseconds. Neither changes
    the simulation's result. *)
