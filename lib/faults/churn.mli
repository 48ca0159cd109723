(** Sustained-churn experiment runner.

    Drives a {!Schedule} against a live network and measures how the
    control plane (monitors, skeptic, three-phase reconfiguration) and
    the data plane (virtual circuits) hold up while faults keep
    arriving — the paper's operational claim that AN2 masks failures
    and repairs within ~100 ms of detection, examined under overlap
    instead of one fault at a time.

    One engine hosts everything. Schedule timers mutate the
    cause-tracked {!Topo.Graph}; a {!Reconfig.Monitor} per
    switch-to-switch link turns physical changes into declared
    transitions; declared transitions coalesce into reconfiguration
    rounds, each executed by a nested {!Reconfig.Runner.run} (the
    protocol converges in milliseconds while churn unfolds over
    seconds, so the nested run is re-anchored on the outer timeline at
    its convergence instant); rerouting at that instant decides how
    many cells each broken circuit lost.

    Fixed, not configurable: every monitor runs with
    {!Reconfig.Monitor.default_params}; every reconfiguration round
    runs with {!Reconfig.Runner.default_params}, its [control_loss]
    taken from the schedule's current control-loss window and its
    [seed] from [params.seed] and the round index; every circuit
    offers {!circuit_rate} cells/s; and every successful reroute is
    validated by a short credit flow-control run ({!Flow.Chain}) over
    the new path length.

    Determinism: all randomness derives from [params.seed] and the
    schedule's own seeds, so a churn run is a pure function of its
    parameters — sequential and parallel sweeps are byte-identical. *)

type params = {
  schedule : Schedule.t;
  duration : Netsim.Time.t;  (** observation window *)
  circuits : int;  (** random switch-to-switch virtual circuits *)
  partitions : int;
      (** engine partitions for each nested reconfiguration run (see
          {!Reconfig.Runner.run}; 1 runs it on one engine, through the
          same code); the outer churn timeline stays on one engine *)
  domains : int;  (** worker domains for those nested runs *)
  seed : int;
}

val default_params : params
(** Empty schedule, 10 s window, 8 circuits, one partition and one
    domain, seed 1. *)

val circuit_rate : float
(** 10,000 cells/s: what each circuit offers, so a blackholed circuit
    loses this many cells per second of outage ({!Partition} counts
    its losses the same way). *)

type result = {
  faults_injected : int;  (** schedule actions applied *)
  transitions : int;  (** declared monitor transitions *)
  reconfigs : int;  (** reconfiguration rounds run *)
  reconfigs_converged : int;
  convergence_mean_ms : float;  (** over converged rounds; 0 if none *)
  convergence_max_ms : float;
  messages : int;  (** protocol messages across all rounds *)
  wire_transmissions : int;  (** including reliable-layer retransmits *)
  cells_lost : float;  (** blackholed-circuit time x offered rate *)
  cells_lost_per_event : float;  (** cells_lost / faults_injected *)
  max_skeptic_level : int;  (** worst suspicion seen at any transition *)
  flow_checks : int;
  flow_throughput_mean : float;  (** over flow checks; 0 if none *)
  flow_lossless : bool;  (** no flow check ever overflowed a buffer *)
  drained : bool;
      (** after retiring the schedule's timers and stopping every
          monitor the engine reached [pending = 0] — nothing leaks *)
}

val run : ?obs:Obs.Sink.t -> graph:Topo.Graph.t -> params -> result
(** [run ~graph params] expands and installs the schedule, monitors
    every switch-to-switch link of [graph], lays out
    [params.circuits] random circuits, and runs to quiescence.

    With an enabled [obs] sink the run counts faults, transitions,
    rounds, reroutes, flow checks and lost cells; histograms
    convergence time (ms), blackhole outage time (ms), skeptic level
    at transition, and flow-check throughput; and traces every
    schedule action, outage span and reconfiguration round. *)
