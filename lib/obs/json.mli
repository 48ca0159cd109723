(** A minimal JSON reader for the observability exporters' own output,
    and the printer the bench harnesses write their JSON with.

    The repo deliberately carries no JSON library — the exporters
    hand-print their JSON — so the round-trip tests and the
    [an2sim report] renderer parse it back with this. Supports
    exactly what Chrome-trace / metrics / heartbeat JSON needs:
    objects, arrays, strings with escapes, numbers, true/false/null.
    [\uXXXX] escapes decode to UTF-8 across the full range, surrogate
    pairs included, so snapshot and flight-recorder artifacts with
    non-Latin payloads round-trip; unpaired surrogates are rejected.
    Still not a general-purpose parser (no duplicate-key or number
    grammar pedantry). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

val parse : string -> t
(** Raises {!Bad} on malformed input or trailing garbage. *)

val to_string : t -> string
(** [v] as JSON that {!parse} reads back to [v]. A float prints as the
    shortest decimal that parses back to it, an integral one without a
    fraction, a non-finite one as [null]. An array or object holding
    no object prints on one line; any other puts each member on its
    own line, indented two spaces per level. No trailing newline. *)

val member : string -> t -> t
(** Field of an object; raises {!Bad} when missing or not an object. *)

val member_opt : string -> t -> t option

val str : t -> string
val num : t -> float
val arr : t -> t list
val obj : t -> (string * t) list
(** Coercions; each raises {!Bad} on the wrong constructor. *)
