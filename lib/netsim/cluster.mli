(** Conservative time-windowed multi-engine driver: one simulation,
    many {!Engine}s, many Domains.

    A cluster partitions the simulated components (switches, in the
    AN2 simulators) into [parts] groups, gives each group its own
    pooled engine, and advances all engines in lock-stepped windows of
    width [lookahead] — the SimBricks-style latency-based coupling:
    because every cross-partition interaction carries a wire latency
    of at least [lookahead], an event executing anywhere inside the
    window [w, w + lookahead) can only schedule cross-partition work
    at [>= w + lookahead], i.e. beyond the window, so the engines
    never need to see each other's timelines mid-window.

    Cross-partition events travel through per-ordered-pair SPSC
    {!Mailbox}es and are replayed into the destination engine at the
    window barrier, for every destination in a fixed (source
    partition, push sequence) order. Since each source engine fills
    its mailboxes in its own deterministic dispatch order, the
    destination engine's insertion order — and therefore its FIFO
    tie-breaking — is a pure function of the simulation's content.
    {b Output is byte-identical whether the cluster runs on 1 domain
    or N}; the differential tests assert exactly this.

    Mutations of shared state (topology failures, churn events) must
    not run inside a window, where other partitions may be reading
    that state concurrently; register them with {!at_barrier} and they
    run single-threadedly between windows, before any same-time
    engine event — as if posted on a plain engine ahead of everything
    else at that instant.

    A one-part cluster is the single-engine simulator: there is
    nothing to couple, so a window runs to the horizon or to the next
    barrier action, and its dispatch order and final clock are those
    of a plain {!Engine} with the barrier actions posted first. The
    simulators run every partition count, one included, through this
    module. *)

type t

val create :
  ?sinks:Obs.Sink.t array -> parts:int -> lookahead:Time.t -> unit -> t
(** [create ~parts ~lookahead ()] builds [parts] engines coupled at
    granularity [lookahead] (the minimum cross-partition latency, from
    {!Topo.Partition.lookahead} in the simulators); it is ignored when
    [parts = 1]. [sinks], when given, supplies one observability sink
    per partition — sinks are single-domain, so a shared sink must
    never be passed to more than one slot; merge the per-partition
    sinks after {!run}, in partition order, via [Obs.Sink.merge_into].
    A one-part cluster may take the caller's own sink, leaving nothing
    to merge. The cluster claims ownership phase by phase
    ([Obs.Sink.claim]): the leader owns every sink while it drains
    mailboxes between windows, each worker owns the sinks of the
    partitions it advances during a window, and all sinks are released
    when {!run} returns.

    With enabled sinks and [parts > 1] the cluster also runs an
    [Obs.Parprof] window profiler (per-partition busy/barrier-wait
    wall time, dispatched events per window, mailbox pressure — names
    [parprof.*]) and tags every cross-partition {!send} with a causal
    flow id emitted as Chrome flow phases linking enqueue, leader
    drain and destination dispatch. Observability never alters the
    simulation: output stays byte-identical to an unobserved run at
    every domain count.

    Raises [Invalid_argument] if [parts < 1], or if [parts > 1] and
    [lookahead < 1]: a zero lookahead would give zero-width windows —
    the coupling degenerates and the conservative protocol cannot make
    progress. *)

val parts : t -> int
val lookahead : t -> Time.t

val engine : t -> int -> Engine.t
(** The engine of one partition: schedule partition-local events
    directly on it (setup, or from events already running on it). *)

val send : t -> src:int -> dst:int -> delay:Time.t -> (unit -> unit) -> unit
(** Cross-partition scheduling hook: run the thunk on partition
    [dst]'s engine [delay] from partition [src]'s current time. With
    [src = dst] this is a plain same-engine {!Engine.post}; otherwise
    [delay] must be [>= lookahead] (raises [Invalid_argument] if not
    — the caller derived [lookahead] as the minimum cross latency, so
    a shorter delay means the partitioning and the traffic disagree)
    and the event is queued in the [src -> dst] mailbox for the next
    barrier. Must be called from partition [src]'s domain (an event
    running on its engine, or setup code before {!run}). *)

val at_barrier : t -> at:Time.t -> (unit -> unit) -> unit
(** Register a global action at absolute time [at]. Actions run
    between windows, on one domain, with every engine quiescent and
    its clock caught up to just before [at]; same-time actions run in registration
    order, and an action at time [g] runs before any engine event at
    [g]. Call before {!run} or from another barrier action — never
    from an engine event. *)

val run : ?domains:int -> t -> horizon:Time.t -> unit
(** Advance the whole cluster to [horizon]: dispatch every engine
    event and every barrier action with time [<= horizon], then leave
    all engine clocks at [horizon] (like {!Engine.run_until}). Windows
    jump over empty stretches, so sparse timelines don't pay per-tick
    barriers. [domains] (default 1) bounds the worker domains used;
    it is capped at [parts] and at [Domain.recommended_domain_count ()]
    (domains beyond the cores would only time-slice at every barrier),
    and it {b does not affect output} — that is the point. An exception raised by any event or action aborts the
    run on every domain and is re-raised on the caller after the
    join. Not reentrant; returns with the cluster usable for a
    further [run] at a later horizon. *)
