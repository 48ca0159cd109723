(** The pre-pool discrete-event engine, retained as a behavioural and
    performance reference for {!Netsim.Engine}.

    Same contract as {!Netsim.Engine} — absolute-time thunks and
    handler events, FIFO among simultaneous events, ranked posts,
    {!pending} counting every queued event — but built the naive way:
    a polymorphic binary heap of closure-carrying records (a handler
    event is a closure over its payload, a ranked post waits in a
    sorted list), so every post and pop allocates. The qcheck differential
    tests drive random programs through both engines and require
    identical dispatch sequences; [bench/engine_perf.ml] reports the
    measured gap. Do not use this in simulators — it exists to keep the
    fast engine honest. *)

type t

val create : ?obs:Obs.Sink.t -> unit -> t

val now : t -> Netsim.Time.t

val post : t -> delay:Netsim.Time.t -> (unit -> unit) -> unit

val post_at : t -> at:Netsim.Time.t -> (unit -> unit) -> unit

type kind

val handler : t -> (int -> unit) -> kind

val post_event : t -> delay:Netsim.Time.t -> kind -> int -> unit

val post_event_at : t -> at:Netsim.Time.t -> kind -> int -> unit

val reserve : t -> int -> int

val post_event_ranked :
  t -> at:Netsim.Time.t -> rank:int -> kind -> int -> unit

val pending : t -> int

val dispatched : t -> int

val step : t -> bool

val run : t -> unit

val run_until : t -> Netsim.Time.t -> unit
