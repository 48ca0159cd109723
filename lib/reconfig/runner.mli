(** Executes the reconfiguration protocol over a topology on the
    discrete-event engine, with per-message link latency and line-card
    processing delay, and checks the paper's correctness and
    performance claims. *)

type params = {
  proc_delay : Netsim.Time.t;
      (** line-card software time to handle one protocol message *)
  edge_cost : Netsim.Time.t;
      (** additional handling time {e per edge} carried in a Report or
          Distribute payload, modelling payload-proportional line-card
          work (parse, validate, install): a Report's reported-edge
          count, a Distribute's topology size. [0] (the default) keeps
          every message at the flat [proc_delay] — historical behavior,
          byte-for-byte. At scale this is what separates hierarchical
          from global repair: a global reconfiguration's payloads grow
          with the fabric, a pod-scoped one's do not. *)
  horizon : Netsim.Time.t;  (** give up after this much simulated time *)
  control_loss : float;
      (** drop probability per control-cell transmission; the {!Reliable}
          go-back-N layer retransmits, so the protocol still converges *)
  retransmit_after : Netsim.Time.t;  (** reliable-layer timeout *)
  seed : int;  (** loss randomness *)
}

val default_params : params
(** 100 us processing per message (AN1-era line-card processor),
    1 s horizon, lossless control plane, 1 ms retransmission timer. *)

type switch_view = {
  view_tag : Tag.t;  (** the configuration tag the switch ended in *)
  view_completed : Tag.t option;
      (** tag of the last configuration it finished, if any *)
  view_completed_at : Netsim.Time.t;  (** when (0 if never) *)
  view_topology_ok : bool;
      (** its learned topology equals the true working topology of its
          own component *)
}
(** One switch's final state, judged against {e its own} component —
    the unit a caller needs to evaluate a partitioned run, where each
    side converges to a different tag and the global [final_tag]
    evaluation only covers the winner's side. *)

type outcome = {
  converged : bool;
      (** every switch in the initiator's component finished the final
          configuration *)
  final_tag : Tag.t;
  elapsed : Netsim.Time.t;
      (** first trigger to last switch completing (0 if not converged) *)
  messages : int;  (** protocol messages delivered *)
  wire_transmissions : int;
      (** control-cell transmissions, including the reliable layer's
          retransmissions under loss *)
  agreement : bool;  (** all completed switches hold identical topologies *)
  topology_correct : bool;
      (** the agreed topology equals the true working topology *)
  tree_depth : int;  (** depth of the propagation-order spanning tree *)
  bfs_depth : int;  (** depth of an ideal BFS tree from the same root *)
  phase_propagation : Netsim.Time.t;
      (** trigger to the last switch joining the winning tree (§2
          phase 1) *)
  phase_collection : Netsim.Time.t;
      (** last join to the root learning the full topology (phase 2) *)
  phase_distribution : Netsim.Time.t;
      (** root to the last switch receiving the topology (phase 3) *)
  switch_views : switch_view array;  (** indexed by switch id *)
  completions : (int * Tag.t * Netsim.Time.t * bool) list;
      (** chronological [(switch, tag, time, topology_ok)] log of every
          configuration completion during the run, including
          configurations later superseded — the raw material for
          evaluating a multi-phase run (split then heal) where the
          final state alone cannot show what each component agreed on
          mid-run. [topology_ok] is judged against the switch's
          component {e as the graph stood at completion time}. *)
}

type event =
  [ `Fail_link of int
  | `Restore_link of int
  | `Fail_switch of int
  | `Restore_switch of int ]

val switch_edges : Topo.Graph.t -> int -> int array
(** [switch_edges g s] is what switch [s] reports, the {!Proto}
    topology of its working switch links and host attachments. *)

val working_edges : Topo.Graph.t -> at:(int -> bool) -> int array
(** [working_edges g ~at] is the {!Proto} topology of the working links
    with a switch end [s] such that [at s], by one scan over link ids.
    With [at] true on one component, that component's topology. *)

val make_judge : Topo.Graph.t -> root:int -> int array -> bool
(** [make_judge g] is the oracle {!run} judges completions with:
    [judge ~root learned] tells whether [learned] equals the working
    link ids of the component containing [root] ({!working_edges}), as
    [g] stands at the call — what the protocol should discover from
    that side. The truth is recomputed only when the graph version
    moves, and a verdict is reused only for the very same physical pair
    of arrays as the previous call, so every distinct pair is compared
    in full. One judge must not be shared across domains. *)

val run :
  ?params:params ->
  ?obs:Obs.Sink.t ->
  ?heartbeat:Netsim.Time.t * Obs.Flight.t ->
  ?events:(Netsim.Time.t * event) list ->
  ?partitions:int ->
  ?domains:int ->
  Topo.Graph.t ->
  triggers:(Netsim.Time.t * int) list ->
  outcome
(** [run g ~triggers] starts a reconfiguration at each [(time, switch)]
    trigger and runs to quiescence. The topology should already
    reflect the failure (use {!Topo.Graph.fail_link} first); triggers
    model the moment the adjacent switches detect the change.

    The control plane always runs on a {!Netsim.Cluster} of
    [partitions] (default 1) engines: switches are split by
    {!Topo.Partition.assign} (clamped to the switch count), each group
    simulates on its own engine, and inter-switch control messages
    cross partitions through the cluster's send hook at their link
    latency. One partition is the single-engine case of the same code.
    [domains] (default 1) bounds the worker domains of that cluster. {b For a fixed
    [partitions], the outcome is identical for every [domains]} — the
    per-partition loss streams, message logs and observation sinks all
    belong to exactly one partition, so nothing about the result
    depends on the parallelism; the tests and the CI determinism smoke
    assert byte-equality. Outcomes at [partitions = 1] and
    [partitions = N] differ (legitimately) in loss-draw streams and
    completion tie order, not in protocol correctness: one partition
    draws from the stream seeded by [params.seed] and logs completions
    in dispatch order, several draw per-partition streams and order
    same-instant completions by switch and tag. Raises
    [Invalid_argument] if [partitions < 1] or [domains < 1], or when a
    multi-partition split has no positive cross-partition lookahead
    (zero-latency cut links).

    [events] applies further topology changes {e during} the run, with
    protocol state persisting across them — one run can cut a
    separator, let both components reconfigure to divergent epochs,
    restore the cut, and drive the heal-time tag reconciliation (the
    {!Proto.message.Reject} path), with the [completions] log recording
    what each side agreed on in between. Events run as cluster barrier
    actions at every partition count. Control cells handed to a dead
    link are lost; an event and a trigger at the same instant see the
    event applied first.

    With an enabled [obs] sink (default {!Obs.Sink.null}) the run
    counts delivered protocol messages total and per type
    (invite/ack/report/distribute), wire transmissions and completed
    switches, gauges convergence, traces trigger/join/completed
    instants per switch, and emits the three phase spans of the
    winning configuration. Timestamps are simulated nanoseconds. With
    one partition the sink is passed straight to the engine. With
    several, each partition gets its own sink (merged back into [obs]
    — metrics and trace ring both — in partition order after the run),
    and the cluster's [Obs.Parprof] window profiler and causal flow
    tracing are active. [heartbeat = (every, flight)] appends a
    snapshot of the merged registries to [flight] every [every]
    simulated nanoseconds, as cluster barrier actions at every
    partition count. Neither observability nor heartbeats change the
    simulation's output. *)

val run_after_failure :
  ?params:params ->
  ?detection_delay:Netsim.Time.t ->
  ?obs:Obs.Sink.t ->
  ?heartbeat:Netsim.Time.t * Obs.Flight.t ->
  ?partitions:int ->
  ?domains:int ->
  Topo.Graph.t ->
  fail:[ `Link of int | `Switch of int ] ->
  outcome
(** The paper's pull-the-plug scenario: apply the failure, then have
    every switch that lost a working link initiate after
    [detection_delay] (default 100 ms of ping-based detection, the
    dominant term in AN1's <200 ms figure). [elapsed] includes the
    detection delay. [partitions]/[domains] as in {!run}. *)
