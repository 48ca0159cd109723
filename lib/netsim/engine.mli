(** Discrete-event simulation engine.

    Events are posted at absolute simulated times, in one of two
    forms: a thunk, or a {e handler event}, an int payload for a
    handler registered once with {!handler}. The engine dispatches
    both in one time order (FIFO among simultaneous events, whatever
    their form, so a given seed always replays identically). Events
    may post further events. A posted event always runs: there is no
    handle to withdraw it. A protocol timer is retired by its owner,
    whose event checks a stamp or flag and returns without acting; the
    retired timer still advances the clock and counts as dispatched,
    exactly where it was due.

    The core is allocation-free in steady state: events live in a
    pooled structure-of-arrays store, and the ready queue has two
    parts. A wheel of one-nanosecond buckets holds every event due
    less than {!wheel_span} after the clock, at O(1) per post and
    dispatch; a monomorphic 4-ary heap ({!Eheap}) holds the events due
    later. With the obs sink off, a post/dispatch cycle allocates no
    minor words beyond the thunk its caller built, and a handler event
    none at all (measured by [bench/engine_perf.ml], pinned by
    [test_engine_pool]). Dispatch order is
    the same (time, FIFO) order as one queue's, pinned to the seed's
    engine, kept with the tests as [test/oracle/engine_reference.ml],
    by differential tests. *)

type t

val wheel_span : Time.t
(** Events due less than this far (8192 ns) after the clock go to the
    wheel, the rest to the overflow heap. The wheel is set up once 128
    events are pending at the same time; until then every event goes
    to the heap. Callers cannot tell the parts apart:
    dispatch order is the same on both sides. Tests use the value to
    post across the boundary. *)

val create : ?obs:Obs.Sink.t -> unit -> t
(** A fresh engine with the clock at time 0. With an enabled [obs]
    sink (default {!Obs.Sink.null}), the engine counts posted
    ([engine.events.scheduled]) and dispatched events, tracks queue
    depth (updated on dispatch, from the cached pending counter) and
    event wait time (post to dispatch, microseconds), and emits a
    trace span per dispatched event. *)

val now : t -> Time.t
(** Current simulated time. *)

val next_time : t -> Time.t
(** Time of the earliest queued event, [max_int] when the queue is
    empty. A retired timer is a queued event like any other, so this
    is exactly the next dispatch time. This is what the {!Cluster}
    window loop uses to pick the next conservative window. *)

val post : t -> delay:Time.t -> (unit -> unit) -> unit
(** [post t ~delay f] runs [f] at [now t + delay]. Raises
    [Invalid_argument] if [delay] is negative. *)

val post_at : t -> at:Time.t -> (unit -> unit) -> unit
(** Post at an absolute time. Raises [Invalid_argument] if
    [at < now t]. *)

(** {1 Handler events}

    A layer whose events are many and alike registers one handler and
    posts [(kind, payload)] pairs: the int payload names the work (a
    table slot, a hop, an op), and the layer keeps the state it
    refers to in its own tables. Such a post allocates nothing. It
    takes a pool slot, a tie-break rank and a place in the (time, seq)
    order exactly as a thunk post at the same call would, so moving a
    post from one form to the other changes no dispatch order. *)

type kind
(** A registered handler. *)

val handler : t -> (int -> unit) -> kind
(** [handler t f] registers [f] and returns its kind; an event of that
    kind runs [f payload]. Register once per layer and engine, when
    the layer is built: registrations are never dropped. A restored
    engine ({!restore}) starts with none. *)

val post_event : t -> delay:Time.t -> kind -> int -> unit
(** [post_event t ~delay k payload] runs [k]'s handler on [payload] at
    [now t + delay]. Raises [Invalid_argument] if [delay] is negative
    or [k] is not one of [t]'s kinds. (A kind of another engine that
    happens to be in [t]'s range is not caught: posting to the engine
    a kind was registered with is the caller's job.) *)

val post_event_at : t -> at:Time.t -> kind -> int -> unit
(** Post a handler event at an absolute time; raises as {!post_at}
    and {!post_event} do. *)

(** {1 Ranked posting} *)

val reserve : t -> int -> int
(** [reserve t n] sets aside [n] consecutive tie-break ranks and
    returns the first, [base]. An event posted later with
    {!post_event_ranked} at rank [base + i] is ordered among same-instant
    events as if it had been posted at the moment of the
    reservation, [i]-th of [n]: after every event posted before,
    before every event posted after. The ranks count as posts (the
    counter a snapshot carries grows by [n] here, not when they are
    posted). This is how a caller feeds a long sorted timeline
    from a cursor, one pending event at a time, in the order posting
    all of it up front would give. Raises [Invalid_argument] if
    [n < 0], or if the wheel (see {!wheel_span}) holds an event: a
    wheel entry posted before the reservation would lose a tie it
    should win. *)

val post_event_ranked : t -> at:Time.t -> rank:int -> kind -> int -> unit
(** [post_event_ranked t ~at ~rank k payload] runs [k]'s handler on
    [payload] at [at], which must be [>= now t], ordered among events
    of the same time by [rank], which {!reserve} must have handed out
    and which must be used only once. Raises as {!post_event_at}
    does. *)

val pending : t -> int
(** Number of queued events: posted and not yet dispatched, retired
    timers included. O(1): a cached counter, not a table walk. *)

val dispatched : t -> int
(** Total events dispatched since creation, retired timers included.
    Useful for events/sec throughput reporting. *)

val step : t -> bool
(** Dispatch the single next event. Returns [false] if the queue was
    empty. *)

val run : t -> unit
(** Dispatch events until none remain. *)

val run_until : t -> Time.t -> unit
(** [run_until t horizon] dispatches all events with time [<= horizon],
    then advances the clock to [horizon]. *)

(** {1 Snapshots}

    Event thunks and handlers are closures and cannot be serialized,
    so checkpoints are only legal at {e quiescent} points: an empty
    queue. What a
    snapshot carries is the deterministic skeleton — clock, dispatch
    count, the FIFO tie-break counter (the number of posts so far) and
    the pool's free-list threading — so a restored engine assigns
    future slots and tie-breaks exactly as the original would have. *)

val quiescent : t -> bool
(** True when the engine holds no events — the only state in which
    {!save} is legal. *)

val save : t -> Snapshot.section
(** Serialize a quiescent engine. Raises [Invalid_argument] if
    [not (quiescent t)]. *)

val restore : ?obs:Obs.Sink.t -> Snapshot.section -> t
(** Rebuild an engine from {!save}'s section. The obs sink is supplied
    fresh (instrumentation is deliberately not snapshotted), and no
    handler is registered: the layers rebuilt over the engine register
    theirs. Raises {!Snapshot.Corrupt} on damage, including a pool
    free list that does not hold every slot exactly once (a loop would
    hand one slot to two events). *)
