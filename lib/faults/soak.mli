(** Endurance soak: checkpoint/restore, invariant audits, and
    automatic divergence bisection over hours of simulated lifetime.

    The run is {e windowed}. Each window schedules a slice of the TPS
    workload ({!Tps}'s {!An2.Workload} stream), link churn with
    skeptic-gated repair and nested {!Reconfig.Runner} rounds, and —
    on the scheduled windows — a separator cut-and-heal episode
    ({!Partition.find_separator}); then the engine drains to
    quiescence. A drained boundary holds no closures, which is what
    makes the byte-exact {!Netsim.Snapshot} save of every stateful
    module legal: engine clock and pool, topology link state and
    version counter, circuit tables and schedules, admission
    reservations and processor horizons, signaling RNG and counters,
    plus the harness's own [soak-control] section (held circuits,
    skeptics, tags, churn RNG, cumulative counters).

    {b Determinism contract.} A run is a pure function of
    (graph, config): restarting from {e any} checkpoint produces
    byte-identical subsequent checkpoints, and a resumed run's
    [final.snap] equals the uninterrupted run's. Two disciplines pay
    for this: cross-window circuits are referenced by vc id (record
    identity does not survive a restore), and the route cache is
    flushed at every boundary in both the writing and the resumed run
    (cache {e warmth} shows through the timed layer — see
    {!An2.Lifecycle.flush_cache}).

    At every [audit_every]-th boundary the harness audits conservation
    invariants: per-link reservations equal the cells of live
    guaranteed circuits (the invariant {!config.inject} breaks), zero
    orphaned table entries after gc, drained processors, and
    setup/admission counter accounting; plus a terminal-failure
    divergence verdict ({!config.terminal_failure_pct}) over the
    arrivals since the last audit (skipped across partition windows,
    where cross-cut failures are expected). On a violation the run stops and records
    it; {!bisect} then localizes the offending window from the stored
    checkpoints — restore-and-audit probes are orders of magnitude
    cheaper than replaying — and replays just that window with the
    caller's tracing sink.

    Fixed constants of the harness, not configuration: the workload is
    {!An2.Workload.default_profile} rescaled to [rate], its duration
    and seed set per window; the control plane is
    {!Tps.improved_config}; arrivals fill the leading 60% of each
    window (the rest is drain headroom); every 5th guaranteed grant is
    held across the boundary, so checkpoints carry live reservations;
    link outages are exponential with a 200 ms mean, and each link's
    recovery is gated by a skeptic waiting 5 ms per level, at most 5
    levels, forgiving a level per 10 s; nested reconfiguration rounds
    run with {!Reconfig.Runner.default_params}, seeded per round; a
    partition episode heals after 400 ms; and a repair re-admits at
    most 64 dark circuits.

    Deliberately {e not} snapshotted: observation sinks (metrics,
    traces, flight recorders belong to a process, not to the simulated
    state) and every derived cache. *)

type config = {
  every : Netsim.Time.t;  (** simulated time per checkpoint window *)
  total : Netsim.Time.t;  (** target simulated lifetime *)
  rate : float;  (** offered circuit setups per simulated second *)
  terminal_failure_pct : float;
      (** divergence verdict per audit period: terminal setup failures
          as % of the arrivals since the last audit *)
  churn_per_window : int;
  partition_every : int;  (** cut-and-heal every Nth window; 0 = never *)
  audit_every : int;  (** audit every Nth checkpoint *)
  inject : (Netsim.Time.t * int * int) option;
      (** [(at, link, cells)]: plant a reservation leak at simulated
          time [at] — the seeded fault the audit must catch *)
  seed : int;
}

val default_config : config
(** 5 s windows over a 60 s lifetime at 200 setups/s, divergence above
    10% terminal failures, 2 churn events per window, a partition
    every 8th window, audits every 4th checkpoint, no planted fault,
    seed 1. *)

type checkpoint = {
  ck_window : int;
  ck_time : Netsim.Time.t;  (** simulated clock at the boundary *)
  ck_digest : int;  (** CRC-32 of the encoded snapshot *)
  ck_bytes : int;
  ck_write_ns : int;  (** wall cost of encoding (and writing) it *)
  ck_audited : bool;
  ck_violations : string list;
}

type report = {
  windows : int;
  sim_time : Netsim.Time.t;
  checkpoints : checkpoint list;  (** this process's boundaries, in order *)
  violation : (int * string list) option;
      (** first audited violation: (window, what the audit said) *)
  final_digest : int;  (** digest of the last checkpoint written *)
  arrivals : int;
  established : int;
  failed : int;
  granted : int;
  denied : int;
  released : int;
  held_released : int;  (** cross-window holds released at a window start *)
  reconfigs : int;
  reconfigs_converged : int;
  link_failures : int;
  link_repairs : int;
  partitions : int;
  rerouted : int;  (** guaranteed circuits repaired around failures *)
  dissolved : int;  (** guaranteed circuits lost to repair *)
  readmitted : int;  (** dark best-effort circuits re-admitted *)
  leaks_injected : int;
  audits_run : int;
  audits_clean : int;
  gc_reclaimed : int;
  wall_s : float;
}

val ckpt_path : string -> int -> string
(** [ckpt_path dir w] — where {!run} puts window [w]'s checkpoint
    ([ckpt-%05d.snap]). *)

val final_path : string -> string
(** [dir/final.snap], written on natural completion. *)

val run :
  ?obs:Obs.Sink.t ->
  ?dir:string ->
  ?resume:string ->
  ?stop_after:int ->
  mk_graph:(unit -> Topo.Graph.t) ->
  config ->
  report
(** Run the soak. [dir] stores a checkpoint per window (plus
    [ckpt-00000.snap], the pristine state, and [final.snap] at natural
    completion). [resume] restores every module from a checkpoint file
    instead of building fresh state ([mk_graph] is then unused); the
    continuation is byte-identical to the uninterrupted run.
    [stop_after] ends the run once that many windows have completed —
    the "kill" half of the resume-equality check — and forces a final
    audit without perturbing the checkpointed state. Stops early at
    the first audited violation. Raises [Invalid_argument] on a
    malformed config and {!Netsim.Snapshot.Corrupt} on a damaged
    resume file. *)

val audit_file : ?obs:Obs.Sink.t -> config -> string -> string list
(** Restore a checkpoint and audit it in place — no replay. [[]] means
    clean. The unit cost of a bisection probe. *)

type bisect_report = {
  detected_window : int;
  offending_window : int;  (** first checkpoint whose audit fails *)
  probes : int;  (** restore-and-audit probes the binary search spent *)
  replay_violations : string list;
      (** what the traced single-window replay reproduced *)
  replay_digest : int;
  bisect_wall_s : float;
}

val bisect :
  ?obs:Obs.Sink.t -> dir:string -> config -> detected:int -> bisect_report
(** A violation surfaced at audited window [detected]; the audits
    before it passed. Binary-search the stored per-window checkpoints
    in [(detected - audit_every, detected]] with {!audit_file} probes
    (a persistent violation is monotone from its onset), then replay
    {e just} the offending window from the checkpoint before it with
    [obs] attached — tracing on demand at a fraction of the
    from-scratch replay cost. *)
