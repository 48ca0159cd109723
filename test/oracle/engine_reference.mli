(** The pre-pool discrete-event engine, retained as a behavioural and
    performance reference for {!Netsim.Engine}.

    Same contract as {!Netsim.Engine} — absolute-time thunks, FIFO among
    simultaneous events, cancellable ids, live {!pending} — but built
    the naive way: a polymorphic binary heap of closure-carrying
    records plus Hashtbls for scheduled/cancelled tracking, so every
    schedule, cancel and pop allocates. The qcheck differential tests
    drive random programs through both engines and require identical
    dispatch sequences; [bench/engine_perf.ml] reports the measured
    gap. Do not use this in simulators — it exists to keep the fast
    engine honest. *)

type t

type event_id

val no_event : event_id
(** A handle that never names a scheduled event; cancelling it is a
    no-op. *)

val create : ?obs:Obs.Sink.t -> unit -> t

val now : t -> Netsim.Time.t

val schedule : t -> delay:Netsim.Time.t -> (unit -> unit) -> event_id

val schedule_at : t -> at:Netsim.Time.t -> (unit -> unit) -> event_id

val post : t -> delay:Netsim.Time.t -> (unit -> unit) -> unit
(** Fire-and-forget {!schedule}, for events that are never cancelled. *)

val post_at : t -> at:Netsim.Time.t -> (unit -> unit) -> unit

val cancel : t -> event_id -> unit

val pending : t -> int

val dispatched : t -> int
(** Events dispatched since creation (cancelled corpses excluded). *)

val step : t -> bool

val run : t -> unit

val run_until : t -> Netsim.Time.t -> unit
