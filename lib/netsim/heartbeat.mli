(** Heartbeat driver for the [Obs.Flight] flight recorder.

    The driver calls [snapshot ()] every [every] simulated
    nanoseconds up to [horizon] and appends the result to [flight]
    (tagged with the simulation time and [label]). [snapshot]
    typically builds a fresh registry and folds the run's sinks into
    it with [Obs.Metrics.merge_into], so each line is a complete
    point-in-time view.

    One snapshot convention holds at every partition count, one
    included: the snapshot tagged [T] is the state just before instant
    [T] — every engine event before [T] has run, none at [T] has.
    Attaching a heartbeat never changes simulation output: the
    callbacks read metrics but mutate no simulation state, and they
    run as cluster barrier actions, which trim conservative windows
    but never reorder dispatch within an engine. *)

val attach_cluster :
  Cluster.t -> every:Time.t -> horizon:Time.t -> flight:Obs.Flight.t ->
  label:string -> snapshot:(unit -> Obs.Metrics.t) -> unit
(** First snapshot at [every]; re-arms itself until past [horizon].
    Snapshots run on the leader domain with every engine quiescent,
    so reading per-partition registries is safe. Call before
    [Cluster.run]. Raises [Invalid_argument] if [every < 1] or
    [horizon < 0]. *)
