(** Nested frames (paper §4, "later versions").

    Large frames give fine-grained bandwidth allocation (1/1024 of a
    link) but poor latency and jitter bounds, because a circuit's cells
    may bunch anywhere within the frame. The paper proposes nesting:
    keep allocating on the big frame, but restrict cell re-ordering to
    smaller subframes, e.g. 1024-slot allocation with 128-slot
    reordering units. Then a circuit with k cells/frame receives
    floor(k/m) or ceil(k/m) of them in every one of the m subframes, so
    its service is smooth at subframe granularity and the effective f
    in the 2f+l delay bound shrinks toward the subframe time.

    This module builds such schedules. The construction distributes
    each reservation's cells across subframes as evenly as possible and
    then schedules every subframe independently with the
    Slepian–Duguid algorithm. Per-subframe admissibility can exceed
    the subframe length when many ceil() roundings land on one line, so
    the builder smooths overflow into neighbouring subframes and
    reports failure only when the original matrix was inadmissible. *)

val build :
  Reservation.t -> frame:int -> subframes:int -> (Schedule.t, string) result
(** [build r ~frame ~subframes] returns a [frame]-slot schedule
    realizing [r] in which every reservation is spread across the [m =
    subframes] equal reordering units within one cell of perfectly
    evenly. Construction: recursive Euler splitting of the reservation
    multigraph (each split halves every line sum and every pair
    multiplicity within one cell), then an independent Slepian-Duguid
    schedule per subframe. [subframes] must be a power of two dividing
    [frame] (the paper's example, 1024-slot frames with 128-slot
    reordering units, is a ratio of 8). Fails only on inadmissible
    input. *)

type smoothness = {
  max_gap : int;
      (** worst circular distance between consecutive scheduled slots
          of any reserved pair — the per-switch jitter driver *)
  mean_gap : float;
  worst_subframe_imbalance : int;
      (** max over pairs of (cells in fullest subframe - cells in
          emptiest subframe); 0 or 1 means perfectly nested *)
}

val measure : Schedule.t -> subframes:int -> smoothness
(** Smoothness of any schedule with respect to a subframe division. *)
