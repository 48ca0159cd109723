(** Versioned binary snapshots of simulation state.

    A snapshot is an ordered list of named, versioned {e sections},
    each an opaque byte payload produced by one stateful module's
    [save] and consumed by its [restore]. The container format is
    stable and self-checking: a magic header, a format version, and a
    CRC-32 per payload plus one over the whole file, so a corrupted or
    truncated snapshot is rejected loudly ({!Corrupt}) instead of
    restoring garbage — a checkpoint you can't trust is worse than
    none.

    Encoding is canonical: equal state always encodes to equal bytes
    (fixed-width little-endian integers, no map iteration order leaks
    into payloads), which is what lets the soak harness prove
    restart-from-checkpoint equals the uninterrupted run by comparing
    bytes. What is deliberately {e not} snapshotted: Obs sinks
    (instrumentation is an observer, not simulation state) and
    in-flight engine closures — modules require quiescence before
    [save] and say so in their interfaces. *)

exception Corrupt of string
(** Raised by decoding on any structural damage: bad magic, unknown
    format version, truncation, checksum mismatch, section
    name/version mismatch, or a reader that runs off the end of (or
    fails to consume) its payload. *)

type section
(** One module's serialized state: a name, a payload-format version,
    and the payload bytes. *)

val section_name : section -> string
val section_version : section -> int

(** Payload writer: fixed-width primitives appended to a buffer. *)
module W : sig
  type t

  val int : t -> int -> unit
  (** 8-byte little-endian two's complement (full OCaml int range). *)

  val bool : t -> bool -> unit
  val float : t -> float -> unit  (** IEEE-754 bits, 8 bytes LE. *)

  val string : t -> string -> unit  (** Length-prefixed bytes. *)

  val int_array : t -> int array -> unit
  val int_list : t -> int list -> unit
end

(** Payload reader: the exact inverse of {!W}; every primitive raises
    {!Corrupt} on truncation. *)
module R : sig
  type t

  val int : t -> int
  val bool : t -> bool
  val float : t -> float
  val string : t -> string
  val int_array : t -> int array
  val int_list : t -> int list

  val remaining : t -> int
  (** Unconsumed payload bytes. *)

  val corrupt : string -> 'a
  (** Raise {!Corrupt} from inside a restore (e.g. a range check). *)
end

val make : name:string -> version:int -> (W.t -> unit) -> section
(** Build a section by running the writer callback on a fresh buffer. *)

val read : section -> name:string -> version:int -> (R.t -> 'a) -> 'a
(** Decode a section, checking that its name and version match the
    caller's expectation and that the reader consumes the payload
    exactly. Raises {!Corrupt} otherwise. *)

val encode : section list -> string
(** The canonical container bytes: magic, format version, sections
    (name, version, length, payload, payload CRC-32), file CRC-32. *)

val decode : string -> section list
(** Inverse of {!encode}; raises {!Corrupt} on any damage. *)

val read_file : string -> section list
(** {!decode} of a file's bytes; raises {!Corrupt} on damage and
    [Sys_error] if the file cannot be read. *)

val digest : section list -> int
(** CRC-32 over the sections' names, versions, lengths and payloads —
    deliberately {e excluding} the container's embedded CRC fields,
    because CRC linearity makes a data-followed-by-its-own-CRC span
    digest identically for same-length payload differences. A compact
    fingerprint for checkpoint digest chains and resume-equality
    checks (byte comparison remains the authoritative test). *)
