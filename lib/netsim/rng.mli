(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic component of the simulator draws from an explicit
    [Rng.t] so that runs are reproducible from a seed and independent
    streams can be split off for independent subsystems. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] returns a new generator whose stream is independent of
    subsequent draws from [t]. *)

val copy : t -> t
(** [copy t] duplicates the generator state; the copy replays the same
    stream as [t] would. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] draws uniformly from [0 .. n-1]. Requires [n > 0]. *)

val below : t -> int -> int
(** Alias of {!int}, named for call sites where the bound is a count
    ("pick one of the [k] requesters"). *)

val float : t -> float -> float
(** [float t x] draws uniformly from [[0, x)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed draw with the given mean. *)

val geometric : t -> p:float -> int
(** Number of failures before the first success, success prob [p]. *)

val pick : t -> 'a list -> 'a
(** Uniform choice from a non-empty list. Raises [Invalid_argument] on
    an empty list. *)

val pick_array : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val select_bit : t -> int -> int
(** [select_bit t m] is a uniformly chosen set-bit index of the
    non-empty mask [m]. Consumes exactly one draw — the same draw
    [pick t] would spend on the equivalent list — so bitset and
    list-based algorithms stay stream-compatible. Raises
    [Invalid_argument] on an empty mask. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle. *)

(** {1 Snapshots}

    The entire generator state is four integer limbs, so a snapshotted
    stream resumes exactly where it left off. *)

val write : Snapshot.W.t -> t -> unit
(** Append the generator state to a snapshot payload. *)

val read : Snapshot.R.t -> t
(** Inverse of {!write}; raises {!Snapshot.Corrupt} on damage. *)

val blit : src:t -> dst:t -> unit
(** Overwrite [dst]'s state with [src]'s — for restoring a stream into
    a generator held in an immutable record field. *)

