(** Log-bucketed histogram with bounded relative-error percentiles.

    Values are counted in geometrically spaced buckets (base
    [(1+eps)/(1-eps)] with [eps = 0.01]), so a percentile query
    returns a value within {!error_bound} (~1%) of the true
    nearest-rank sample, using constant memory and O(1) allocation-free
    adds. Intended for delays, occupancies and iteration counts;
    values [<= 0] are counted in a dedicated zero bucket. *)

type t

val create : unit -> t

val add : t -> float -> unit
(** O(1), allocation-free. *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into src] adds [src]'s samples to [into], bucket-wise:
    afterwards [into] reports exactly what it would had every sample
    been added to it directly. [src] is unchanged. *)

val count : t -> int
val sum : t -> float
val mean : t -> float
(** 0 if empty. *)

val min : t -> float
(** Exact; [nan] if empty. *)

val max : t -> float
(** Exact; [nan] if empty. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [0,100]: the representative of the
    bucket holding the nearest-rank sample, clamped to [[min, max]].
    Within {!error_bound} relative error of the true nearest-rank
    sample value. [nan] if empty. *)

val median : t -> float

val error_bound : float
(** Guaranteed relative error of {!percentile}: [sqrt gamma - 1],
    about 0.0101. *)

val pp : Format.formatter -> t -> unit
