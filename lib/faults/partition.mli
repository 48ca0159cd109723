(** Partition-and-heal survivability scenario (paper §2).

    The hardest case the (epoch, initiator) tag design exists for: cut
    an edge separator so the network splits into two components, let
    each side independently detect the cut and reconfigure — divergent
    epochs — while its intra-component circuits keep serving, then
    restore the cut and verify the heal: one protocol run (state
    persists across the cut and the restore, via
    {!Reconfig.Runner.run}'s mid-run events) must reconcile the
    divergent tags into a single maximal one, with every switch
    agreeing on the true healed topology.

    The circuit story rides on top through {!An2.Lifecycle}: circuits
    crossing the cut go dark and their routing-table entries are
    garbage-collected; intra-component circuits are rerouted as soon as
    their side's reconfiguration settles (graceful degradation,
    measured as [intra_preserved]); after the heal, dark circuits are
    re-admitted with paced setups and the run asserts zero orphaned
    entries remain.

    Fully deterministic from the seeds in [params]; safe under
    {!Netsim.Sweep}. *)

type params = {
  circuits : int;  (** best-effort circuits over random host pairs *)
  circuit_rate : float;  (** cells/s per circuit, for loss accounting *)
  split_at : Netsim.Time.t;
  heal_at : Netsim.Time.t;
  detection_delay : Netsim.Time.t;
      (** cut (or restore) to the adjacent switches triggering *)
  extra_reconfigs : int;
      (** additional reconfiguration rounds driven on the B side while
          split, pushing its epoch well past A's — the divergence the
          heal must reconcile *)
  one_sided_heal : bool;
      (** only the A side (the low-epoch one) detects the restore: the
          heal then {e requires} the {!Reconfig.Proto.message.Reject}
          path, because B completed long ago and initiates nothing *)
  protocol : Reconfig.Runner.params;
  lifecycle : An2.Lifecycle.params;  (** pacing, timeout, attempts, gc *)
  partitions : int;
      (** engine partitions for the spanning control-plane run (see
          {!Reconfig.Runner.run}); 1 = one engine *)
  domains : int;  (** worker domains for that run *)
  seed : int;
}

val default_params : params
(** 12 circuits at 10k cells/s, split at 100 ms, heal at 400 ms, 1 ms
    detection, 2 extra B-side rounds, two-sided heal. *)

type result = {
  switches_a : int;
  switches_b : int;
  cut_links : int;
  split_converged : bool;
      (** during the split, each side separately converged: every
          member completed its side's final tag with the topology of
          its own component *)
  tag_a : Reconfig.Tag.t;  (** A's agreed tag while split *)
  tag_b : Reconfig.Tag.t;
  divergent : bool;  (** the sides ended the split on different tags *)
  intra_circuits : int;  (** circuits both of whose endpoints stayed on
                             one side (after rerouting) *)
  cross_circuits : int;  (** circuits the cut severed: dark until
                             re-admission *)
  cells_lost_intra : float;
      (** rate x outage over intra circuits' reroute windows *)
  cells_lost_cross : float;
  intra_preserved : float;
      (** fraction of intra-circuit offered traffic served during the
          split — the graceful-degradation measure; 1.0 = no intra
          circuit ever stopped *)
  split_gc_reclaimed : int;
      (** orphaned routing-table entries swept after the split-side
          reconfigurations *)
  leaks_after_split_gc : int;  (** audit right after that gc; expect 0 *)
  heal_converged : bool;
  heal_agreement : bool;
  heal_topology_correct : bool;
  heal_tag : Reconfig.Tag.t;
  heal_reconciled : bool;
      (** [heal_tag] is strictly greater than both sides' split tags *)
  heal_elapsed : Netsim.Time.t;
      (** restore to the last switch completing the healed
          configuration (includes detection) *)
  messages : int;  (** protocol messages across the whole run *)
  readmitted : int;
  readmit_failed : int;  (** terminal setup errors; expect 0 *)
  readmit_elapsed : Netsim.Time.t;
      (** start of re-admission to the last circuit resolving *)
  worst_signaling_backlog : int;  (** deepest per-switch setup queue *)
  setup_attempts : int;
  crankbacks : int;
  timeouts : int;
  retries : int;
  gc_reclaimed_total : int;
  leaks_final : int;  (** routing-table audit at the end; expect 0 *)
  all_served_at_end : bool;  (** every circuit serving again *)
  drained : bool;  (** no setup still in flight — retry never
                       live-locked *)
}

val find_separator : Topo.Graph.t -> bool array * int list
(** [(in_b, cut)]: a connected bisection of the working switch graph.
    [in_b] marks the B side — a BFS subtree chosen closest to half the
    switches, so both sides stay internally connected — and [cut] is
    every working switch-to-switch link with one end on each side.
    Raises [Invalid_argument] with fewer than two switches. *)

val run : ?obs:Obs.Sink.t -> graph:Topo.Graph.t -> params -> result
(** Run the scenario. Hosts are added to any switch that has none (the
    graph is mutated; pass a fresh one). The graph ends healed. *)
