(** Ring-buffer event tracer with Chrome [trace_event] export.

    Emission is allocation-free (all event fields are immediates or
    shared string constants, stored structure-of-arrays); when the
    buffer fills, the oldest events are overwritten so long runs keep
    their tail. Timestamps and durations are raw integers in whatever
    unit the instrumented layer uses (nanoseconds for engine-driven
    simulations, slot numbers for the fabric); export scales them to
    the microseconds Chrome expects via [ts_scale]. *)

type t

type kind = Span | Instant | Counter | Flow_start | Flow_step | Flow_end

val create : ?capacity:int -> unit -> t
(** Default capacity: 65536 events. *)

val emit :
  t -> kind:kind -> name:string -> cat:string -> ts:int -> dur:int ->
  tid:int -> v:int -> unit
(** Append one event, overwriting the oldest if full. [name] and [cat]
    should be constants (they are stored by reference); [v] is a free
    integer argument exported as [args.v]. *)

val span : t -> name:string -> cat:string -> ts:int -> dur:int -> tid:int -> v:int -> unit
val instant : t -> name:string -> cat:string -> ts:int -> tid:int -> v:int -> unit
val counter : t -> name:string -> cat:string -> ts:int -> v:int -> unit

val flow_start : t -> name:string -> cat:string -> ts:int -> tid:int -> id:int -> unit
val flow_step : t -> name:string -> cat:string -> ts:int -> tid:int -> id:int -> unit
val flow_end : t -> name:string -> cat:string -> ts:int -> tid:int -> id:int -> unit
(** Chrome flow phases ([ph] ["s"]/["t"]/["f"]): arrows joining events
    that share [id] across thread tracks — used to link a
    cross-partition send from enqueue through leader drain to
    destination dispatch. [flow_end] binds to the enclosing slice's
    end ([bp:"e"]). The id rides in the event's [v] slot. *)

val total : t -> int
(** Events emitted over the trace's lifetime. *)

val length : t -> int
(** Events currently retained ([min total capacity]). *)

val dropped : t -> int
(** Events overwritten ([total - length]). *)

type event = {
  ekind : kind;
  ename : string;
  ecat : string;
  ets : int;
  edur : int;
  etid : int;
  ev : int;
}

val iter : t -> (event -> unit) -> unit
(** Retained events, oldest first. *)

val merge_into : into:t -> t -> unit
(** Replay [src]'s retained events into [into], oldest first. Callers
    gathering per-partition rings must merge in a fixed partition
    order so the combined trace is deterministic. *)

val to_chrome_string : ?ts_scale:float -> t -> string
(** Chrome [trace_event] JSON (the ["traceEvents"] array form), as
    accepted by chrome://tracing and Perfetto. [ts_scale] converts raw
    timestamps to microseconds (default 1.0). *)

val write_chrome : ?ts_scale:float -> string -> t -> unit

val pp : Format.formatter -> t -> unit
(** Plain-text dump, one event per line. *)
