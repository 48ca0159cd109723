(** Latency-aware switch partitioning for the {!Netsim.Cluster}
    conservative-window driver.

    The window width of the cluster — and hence how rarely the
    domains must synchronize — is the {e minimum latency of a link
    that crosses partitions}. A good partition therefore cuts the
    topology along its slowest links: min-cut in spirit, but with the
    objective of maximizing the smallest latency on the cut rather
    than minimizing the number of cut edges. The heuristic here is
    farthest-point (k-center) seeding followed by balanced multi-source
    Dijkstra growth with edge weight = latency: regions grow outward
    from mutually distant seeds and meet in the middle of long paths,
    which is exactly where the high-latency links sit.

    Dead links count like working ones: partition ownership must not
    depend on failure state, or a mid-run restore could surface a
    cross-partition link faster than the lookahead the cluster was
    built with. Everything is deterministic — equal inputs give equal
    partitions on every run and every machine. *)

val assign : Graph.t -> parts:int -> int array
(** [assign g ~parts] maps each switch id to a partition id in
    [0 .. min parts (switch_count g) - 1]. Every partition in that
    range is non-empty, and no partition holds more than
    [ceil (switches / parts)] switches. Raises [Invalid_argument] if
    [parts < 1] or the graph has no switches. *)

val lookahead : Graph.t -> int array -> Netsim.Time.t option
(** [lookahead g part] is the minimum latency over all switch-to-switch
    links (working or dead) whose endpoints live in different
    partitions — the conservative window width for a cluster built
    over [part]. [None] when no link crosses (e.g. a single
    partition): there is nothing to couple. *)

(** {1 Running over a partition}

    The setup every partitioned simulator shares: partition the
    switches, derive the lookahead, give each partition its sink,
    build the {!Netsim.Cluster}, attach a heartbeat, and merge the
    sinks back after the run. One partition is the single-engine
    case of the same path. *)

type cluster = {
  part : int array;  (** switch id -> partition *)
  parts : int;  (** number of partitions actually used *)
  sinks : Obs.Sink.t array;
      (** one per partition; [[| obs |]] itself when [parts = 1] *)
  engines : Netsim.Engine.t array;  (** one per partition *)
  cl : Netsim.Cluster.t;
  obs : Obs.Sink.t;  (** the caller's sink *)
  horizon : Netsim.Time.t;
}

val cluster :
  ?heartbeat:Netsim.Time.t * Obs.Flight.t ->
  label:string ->
  obs:Obs.Sink.t ->
  horizon:Netsim.Time.t ->
  Graph.t ->
  parts:int ->
  cluster
(** [cluster ~label ~obs ~horizon g ~parts] splits [g]'s switches with
    {!assign} (clamped to the switch count) and builds a cluster over
    them. With [parts > 1] each partition gets a fresh sink (enabled
    iff [obs] is); with one partition the engine feeds [obs] directly
    and nothing needs merging. [heartbeat = (every, flight)] appends a
    snapshot of the merged registries to [flight], tagged [label],
    every [every] simulated nanoseconds up to [horizon]. Raises
    [Invalid_argument] if a multi-partition split has no positive
    cross-partition lookahead (zero-latency cut links). *)

val run : ?domains:int -> cluster -> unit
(** Run the cluster to its horizon on at most [domains] worker domains
    (default 1), then merge the partition sinks into [obs] in
    partition order. *)
