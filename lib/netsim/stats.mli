(** Online statistics for simulation measurements. *)

(** Streaming mean/variance (Welford) with min/max tracking. *)
module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 if empty. *)

  val variance : t -> float
  (** Sample variance; 0 if fewer than two observations. *)

  val stddev : t -> float
  val min : t -> float
  (** [nan] if empty. *)

  val max : t -> float
  (** [nan] if empty. *)

  val pp : Format.formatter -> t -> unit
end

(** Exact percentile estimation by keeping all samples. Adequate for
    simulation runs of up to a few million observations. For
    non-negative integer samples with a small range (delays in slots)
    {!Int_distribution} gives the same answers without storing them;
    this module stays for values on a fine scale, such as the
    nanosecond latencies of [An2.Netrun] and [Flow.Chain], where a
    dense array over the range would cost more than the samples do. *)
module Distribution : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float

  val percentile : t -> float -> float
  (** [percentile t p] for [p] in [0,100], by linear interpolation.
      [nan] if empty. *)

  val median : t -> float
  val max : t -> float
end

(** Exact distribution of non-negative integers as a histogram: a
    dense count per value, grown by doubling to cover the largest
    sample, plus an exact sum and count. Memory is O(largest sample),
    independent of the number of samples.

    Every query returns bit for bit what {!Distribution} returns for
    the same samples added as floats, as long as their sum stays below
    2{^53}. *)
module Int_distribution : sig
  type t

  val create : unit -> t

  val add : t -> int -> unit
  (** Raises [Invalid_argument] on a negative sample. *)

  val count : t -> int
  val mean : t -> float
  (** 0 if empty. *)

  val percentile : t -> float -> float
  (** As {!Distribution.percentile}: [p] in [0,100], linear
      interpolation between the two nearest ranks; [nan] if empty. *)

  val median : t -> float
  val max : t -> float
  (** [nan] if empty. *)
end
