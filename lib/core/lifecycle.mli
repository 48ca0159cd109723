(** Circuit lifecycle recovery: setup with timeout, retry and
    crankback; orphaned-entry garbage collection; paced re-admission
    (paper §2).

    {!Signaling} models one happy-path setup in isolation. This layer
    runs setups on a shared engine against the live {!Network} state,
    with the failure handling the paper's circuit story needs:

    - the setup cell crawls the path one switch at a time, paying the
      ~100 us line-card signaling processing per hop on a {e per-switch
      serialized processor} (concurrent setups queue; the worst queue
      depth is the signaling backlog this module measures);
    - a switch that is dead when the cell arrives swallows it, and the
      source's {e setup timeout} fires;
    - a dead {e next link} discovered mid-crawl triggers {e crankback}:
      a release cell walks back uninstalling the entries installed so
      far, and the source retries on a route recomputed around the
      failure (optionally up*/down*-restricted);
    - retries use exponential backoff with seeded jitter and are
      bounded by [max_attempts], so a setup always ends in [Ok] or a
      terminal [Error] — no live-lock. The backoff is fixed, not a
      parameter: the first retry waits 1 ms and each further one
      doubles the wait, up to a 100 ms cap;
    - attempts abandoned by timeout leave their installed entries
      behind as {e orphans}; {!gc} sweeps them (and the entries of
      circuits whose path a reconfiguration broke), and {!audit}
      proves none remain;
    - {!readmit} re-establishes a batch of dark circuits after repair,
      pacing admissions so the storm does not melt the signaling
      plane.

    All randomness (jitter) comes from the seed in {!params}; runs are
    deterministic and safe inside {!Netsim.Sweep}. *)

type routing =
  | Shortest  (** unrestricted shortest path, as {!Network.find_route} *)
  | Updown
      (** up*/down*-legal path w.r.t. a BFS tree rooted at the source
          attachment — the deadlock-free alternate-route discipline of
          §5, exercised by crankback *)

type params = {
  proc_delay : Netsim.Time.t;
      (** line-card signaling processing per setup/release/ack hop *)
  setup_timeout : Netsim.Time.t;  (** per attempt, armed at the source *)
  max_attempts : int;  (** total attempts before a terminal error *)
  jitter : float;
      (** retry delay is scaled by a uniform factor in [1 - jitter,
          1 + jitter] so colliding retries decorrelate *)
  pace : Netsim.Time.t;
      (** gap between successive {!readmit} admissions; 0 = naive
          storm, everything at once *)
  routing : routing;
  seed : int;  (** jitter randomness *)
  route_cost : Netsim.Time.t;
      (** per-attempt route computation charged to the ingress
          switch's signaling processor; [0] (the default) keeps route
          lookup free and the event timeline exactly as before this
          field existed *)
  route_cost_cached : Netsim.Time.t;
      (** route cost when the legal-path cache answers *)
  path_cache : bool;
      (** memoize {!params.routing} results keyed by the graph-version
          counter (pure memoization: any topology mutation empties the
          cache, so cached and uncached runs are byte-identical apart
          from the charged cost) *)
}

val default_params : params
(** 100 us/hop, 20 ms timeout, 8 attempts, 20% jitter, 500 us
    pacing, shortest-path routing, free cached routing
    ([route_cost = 0], cache on). *)

type stats = {
  setups : int;  (** circuits handed to the layer (fresh + readmitted) *)
  established : int;
  failed : int;  (** terminal errors *)
  attempts : int;  (** route-and-crawl attempts started *)
  crankbacks : int;  (** releases triggered by a dead link mid-crawl *)
  timeouts : int;  (** source timeouts (swallowed cell or ack) *)
  retries : int;  (** backoff retries scheduled *)
  worst_backlog : int;
      (** deepest per-switch signaling queue observed, setup, release
          and ack cells included *)
  gc_reclaimed : int;  (** orphaned table entries swept, total *)
  gc_runs : int;
  route_cache_hits : int;  (** attempts answered by the path cache *)
  route_cache_misses : int;
      (** attempts that recomputed the route (every attempt, when
          [path_cache] is off) *)
}

type t

val create : ?obs:Obs.Sink.t -> engine:Netsim.Engine.t -> Network.t -> params -> t
(** The engine is shared with the caller's scenario: setups interleave
    with whatever else is on the timeline. With an enabled [obs] sink,
    counts mirror {!stats} under [lifecycle.*] and the backlog is
    gauged; additionally [lifecycle.setup_latency_us] histograms
    submit-to-established latency, [lifecycle.signaling_backlog]
    histograms the per-switch queue depth seen by every signaling
    cell, and the trace records per-circuit phase activity (cat
    ["lifecycle"], tid = vc id): a [phase.crawl] span over the winning
    attempt, [phase.retry] spans covering each backoff wait,
    [phase.crankback] instants at dead-link discoveries, and
    [phase.gc] instants carrying the reclaimed-entry count. *)

val setup :
  t -> src_host:int -> dst_host:int ->
  on_done:((Network.vc, string) result -> unit) -> unit
(** Start establishing a fresh best-effort circuit. [on_done] fires on
    the engine timeline once the setup either completes (circuit
    installed end to end, ack received) or fails terminally. The vc is
    allocated immediately (visible dark via {!Network.find_vc}) so a
    timed-out attempt's orphaned entries stay attributable. *)

val readmit :
  t ->
  ?on_circuit:((Network.vc, string) result -> unit) ->
  Network.vc list -> on_done:(unit -> unit) -> unit
(** Re-establish existing (dark) circuits, admitting one every
    [params.pace] (all at once when 0). [on_circuit] fires as each
    individual readmission resolves (e.g. to close a loss-accounting
    window); [on_done] fires once every one has reached [Ok] or a
    terminal error. *)

val gc : t -> int
(** Sweep every switch's routing table, dropping entries whose circuit
    is gone, paged out, routed elsewhere, or whose installed path
    crosses a dead link (such circuits are marked dark — they need
    re-establishment, see {!dark}). Returns the number of entries
    reclaimed. Run it after each reconfiguration, as the paper's
    switches do when a new topology arrives. *)

val audit : t -> int
(** Count the table entries {!gc} would reclaim, without touching
    anything. 0 after a gc — the zero-leak check. *)

val dark : t -> Network.vc list
(** Paged-out circuits awaiting re-admission, in vc-id order. *)

val in_flight : t -> int
(** Setups started but not yet resolved. *)

val stats : t -> stats

val flush_cache : t -> unit
(** Drop the legal-path cache (routes and up*/down* orientations). The
    cache is pure memoization, but its {e warmth} shows through the
    timed layer ([route_cost] vs [route_cost_cached]), so
    checkpoint-based harnesses flush at every boundary to make the
    writing run and a resumed run stand at the same cold-cache state. *)

val quiescent : t -> bool
(** No setups in flight — the only state in which {!save} is legal. *)

val save : t -> Netsim.Snapshot.section
(** Serialize the retry RNG stream, per-switch signaling-processor
    horizons and queue depths, and cumulative stats. Cache contents
    are deliberately not serialized (see {!flush_cache}). Raises
    [Invalid_argument] if [not (quiescent t)]. *)

val restore :
  ?obs:Obs.Sink.t ->
  engine:Netsim.Engine.t ->
  Network.t ->
  params ->
  Netsim.Snapshot.section ->
  t
(** Rebuild over an already-restored network and engine; the path
    cache starts cold. Raises {!Netsim.Snapshot.Corrupt} on damage. *)
