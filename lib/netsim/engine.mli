(** Discrete-event simulation engine.

    Events are thunks scheduled at absolute simulated times; the engine
    dispatches them in time order (FIFO among simultaneous events, so a
    given seed always replays identically). Events may schedule further
    events. Scheduled events can be cancelled, which is how protocol
    timers are retired.

    The core is allocation-free in steady state: events live in a
    pooled structure-of-arrays store reached through generation-tagged
    integer ids, and the ready queue has two parts. A wheel of
    one-nanosecond buckets holds every event due less than
    {!wheel_span} after the clock, at O(1) per schedule and dispatch;
    a monomorphic 4-ary heap ({!Eheap}) holds the events due later. A
    schedule/dispatch cycle with the obs sink off allocates zero minor
    words (measured by [bench/engine_perf.ml]). Dispatch order is the
    same (time, FIFO) order as one queue's, pinned to the seed's
    engine, kept with the tests as [test/oracle/engine_reference.ml],
    by differential tests. *)

type t

val wheel_span : Time.t
(** Events due less than this far (8192 ns) after the clock go to the
    wheel, the rest to the overflow heap. The wheel is set up once 128
    events are pending at the same time; until then every event goes
    to the heap. Callers cannot tell the parts apart:
    dispatch order is the same on both sides. Tests use the value to
    schedule across the boundary. *)

type event_id
(** Handle for cancelling a scheduled event. Handles are generation-
    tagged: once the event has fired or been cancelled, the handle
    goes stale and cancelling it is a no-op, even after the engine
    reuses the underlying pool slot. *)

val no_event : event_id
(** A handle that never names a scheduled event; cancelling it is a
    no-op. Lets timer fields hold a plain [event_id] instead of an
    [event_id option]. *)

val create : ?obs:Obs.Sink.t -> unit -> t
(** A fresh engine with the clock at time 0. With an enabled [obs]
    sink (default {!Obs.Sink.null}), the engine counts
    scheduled/dispatched/cancelled events, tracks queue depth (updated
    on dispatch, from the cached pending counter) and event wait time
    (schedule to dispatch, microseconds), and emits a trace span per
    dispatched event. *)

val now : t -> Time.t
(** Current simulated time. *)

val next_time : t -> Time.t
(** Time of the earliest queued entry, [max_int] when the queue is
    empty. A lower bound on the next dispatch: a
    cancelled corpse awaiting reaping reports its key even though
    firing it runs nothing. This is what the {!Cluster} window loop
    uses to pick the next conservative window. *)

val schedule : t -> delay:Time.t -> (unit -> unit) -> event_id
(** [schedule t ~delay f] runs [f] at [now t + delay]. [delay] must be
    non-negative. Returns a handle usable with {!cancel}. *)

val schedule_at : t -> at:Time.t -> (unit -> unit) -> event_id
(** Schedule at an absolute time, which must be [>= now t]. *)

val post : t -> delay:Time.t -> (unit -> unit) -> unit
(** Fire-and-forget {!schedule} for events that are never cancelled —
    the common case in the simulators, where it reads better than
    [ignore (schedule ...)]. *)

val post_at : t -> at:Time.t -> (unit -> unit) -> unit
(** Fire-and-forget {!schedule_at}. *)

val reserve : t -> int -> int
(** [reserve t n] sets aside [n] consecutive tie-break ranks and
    returns the first, [base]. An event posted later with
    {!post_ranked} at rank [base + i] is ordered among same-instant
    events as if it had been scheduled at the moment of the
    reservation, [i]-th of [n]: after every event scheduled before,
    before every event scheduled after. The ranks count as schedules
    (the counter a snapshot carries grows by [n] here, not when they
    are posted). This is how a caller feeds a long sorted timeline
    from a cursor, one pending event at a time, in the order posting
    all of it up front would give. Raises [Invalid_argument] if
    [n < 0], or if the wheel (see {!wheel_span}) holds an event: a
    wheel entry scheduled before the reservation would lose a tie it
    should win. *)

val post_ranked : t -> at:Time.t -> rank:int -> (unit -> unit) -> unit
(** [post_ranked t ~at ~rank f] runs [f] at [at], which must be
    [>= now t], ordered among events of the same time by [rank], which
    {!reserve} must have handed out and which must be used only once.
    Not cancellable. *)

val cancel : t -> event_id -> unit
(** Cancel a pending event. Cancelling an already-fired,
    already-cancelled or {!no_event} handle is a no-op. *)

val pending : t -> int
(** Number of dispatchable events: scheduled, not yet dispatched and
    not cancelled. Cancelled events awaiting reaping inside the queue
    are {e not} counted. O(1): a cached counter, not a table walk. *)

val dispatched : t -> int
(** Total events dispatched since creation (cancelled events are never
    counted). Useful for events/sec throughput reporting. *)

val step : t -> bool
(** Dispatch the single next event. Returns [false] if the queue was
    empty. *)

val run : t -> unit
(** Dispatch events until none remain. *)

val run_until : t -> Time.t -> unit
(** [run_until t horizon] dispatches all events with time [<= horizon],
    then advances the clock to [horizon]. *)

(** {1 Snapshots}

    Event thunks are closures and cannot be serialized, so checkpoints
    are only legal at {e quiescent} points: no live events and an empty
    queue (a cancelled corpse still advances the clock when popped, so
    the queue must be truly empty). What a snapshot carries is the
    deterministic skeleton — clock, dispatch count, the FIFO tie-break
    counter (the number of schedules so far), and the pool's free-list
    threading and slot generations — so a restored engine assigns
    future slots, ids and tie-breaks exactly as the original would
    have. *)

val quiescent : t -> bool
(** True when the engine holds no events at all — the only state in
    which {!save} is legal. *)

val save : t -> Snapshot.section
(** Serialize a quiescent engine. Raises [Invalid_argument] if
    [not (quiescent t)]. *)

val restore : ?obs:Obs.Sink.t -> Snapshot.section -> t
(** Rebuild an engine from {!save}'s section. The obs sink is supplied
    fresh (instrumentation is deliberately not snapshotted). Raises
    {!Snapshot.Corrupt} on damage. *)
