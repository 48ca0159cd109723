(** Control-plane saturation: drive circuit setup to its TPS wall.

    An open-loop {!An2.Workload} stream of circuit arrivals and
    departures runs against the two contended control-plane resources
    — per-switch signaling processors ({!An2.Lifecycle}) and the
    sharded admission service
    ({!An2.Bandwidth_central.Service}) — at a fixed offered rate;
    {!run_point} measures one such rate, and {!find_knee} sweeps the
    rate to the {e knee}: the highest offered setup rate the control
    plane sustains before its backlog diverges, measured the way
    tezos' [bin_tps_evaluation] finds chain TPS.

    Everything is simulated-time deterministic: a point is a pure
    function of (graph, config, profile), so rate sweeps parallelize
    byte-identically. *)

type config = {
  lifecycle : An2.Lifecycle.params;
  service : An2.Bandwidth_central.Service.params;
  shards : int;  (** admission shards (link-id ranges) *)
  frame : int;  (** guaranteed-traffic frame length, cells *)
  windows : int;  (** backlog-curve samples over the load interval *)
  gc_every : Netsim.Time.t;  (** periodic {!An2.Lifecycle.gc}; 0 = never *)
  schedule : Schedule.t;  (** faults riding along, usually [[]] *)
}

val tuned_lifecycle : An2.Lifecycle.params
(** TPS-calibrated: 10 us/hop line cards, 50 ms timeout, 4 attempts,
    1 ms uncached / 20 us cached route computation, cache on. *)

val improved_config : config
(** This PR's control plane: 4 admission shards, batched table writes,
    route cache on. *)

val baseline_config : config
(** The pre-PR structure under the same cost model: one shard,
    unbatched writes, no path cache — what the knee ratio in
    [BENCH_tps.json] is measured against. *)

type thresholds = {
  final_backlog_min : int;
      (** backlog depth below which the curve test never fires *)
  final_over_mid : float;
      (** final > this × midpoint ⇒ still growing, not a plateau *)
  terminal_failure_pct : float;
      (** terminal setup failures as % of arrivals *)
}
(** What counts as divergence. {!run_point} always applies
    {!default_thresholds}; the record is exported so a harness that
    rebuilds a point from the public calls can apply the same test.
    {!Soak} has its own terminal-failure percentage
    ({!Soak.config.terminal_failure_pct}). *)

val default_thresholds : thresholds
(** The historical test, exactly: final backlog > 32 and > 1.5× the
    midpoint sample, or terminal failures > 1% of arrivals. *)

type point = {
  rate : float;  (** offered rate the profile was scaled to *)
  offered_rate : float;  (** measured: arrivals / duration *)
  arrivals : int;
  established : int;  (** best-effort setups that completed *)
  failed : int;
  granted : int;  (** guaranteed admissions *)
  denied : int;
  cross_shard : int;
  escrow_conflicts : int;
  batch_flushes : int;
  cache_hits : int;
  cache_misses : int;
  p50_us : float;  (** setup latency percentiles, microseconds *)
  p99_us : float;
  max_us : float;
  worst_signaling_backlog : int;
  worst_admission_backlog : int;
  backlog_curve : (float * int) array;
      (** (sim seconds, in-flight setups + admissions), one sample per
          window across the offered-load interval *)
  peak_backlog : int;
  final_backlog : int;  (** at the end of the offered-load interval *)
  diverged : bool;
      (** the control plane stopped keeping up, per the {!thresholds}
          in force (defaults: the final backlog sample is > 32 and
          more than 1.5× the midpoint sample — a saturated queue grows
          linearly, final ≈ 2× mid — or over 1% of arrivals failed
          terminally: timeout storms; past deep saturation the backlog
          plateaus because attempts are bounded, and failures become
          the signal) *)
  drained : bool;  (** everything resolved once arrivals stopped *)
  sim_events : int;
      (** events the engine dispatched for the point
          ({!Netsim.Engine.dispatched}), timers retired by their owner
          included: a setup timeout whose setup had already finished
          counts once, when it fires and does nothing *)
}

val point_of_run :
  profile:An2.Workload.profile ->
  arrivals:int ->
  latencies_ns:Netsim.Time.t array ->
  curve:(float * int) array ->
  engine:Netsim.Engine.t ->
  An2.Lifecycle.t ->
  An2.Bandwidth_central.Service.t ->
  point
(** The point of a finished run of [profile]: what {!run_point} returns
    after posting its arrivals. [latencies_ns] holds one setup latency
    per completed setup, in nanoseconds; it is sorted in place, and
    the percentiles are read from it in microseconds. *)

val run_point :
  ?obs:Obs.Sink.t ->
  graph:Topo.Graph.t ->
  config ->
  An2.Workload.profile ->
  point
(** Run the profile's full arrival timeline on a fresh network over
    [graph] and let it drain. The graph is mutated by [schedule]
    faults (if any); pass a fresh graph per point.
    {!default_thresholds} governs the [diverged] verdict. *)

val find_knee :
  ?obs:Obs.Sink.t ->
  mk_graph:(unit -> Topo.Graph.t) ->
  config ->
  An2.Workload.profile ->
  float * point list
(** [(knee, points)]: a geometric climb (or descent) from 2000/s, at
    most 10 doublings (or halvings), brackets the divergence rate,
    then 3 bisections tighten it; [knee] is the highest probed rate
    that sustained. These three constants are fixed. [points] holds
    every probe, ascending by rate. [mk_graph] must build a fresh
    identical graph per call. *)
