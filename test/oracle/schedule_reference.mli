(** The frame schedule as it was before its storage went flat: two
    [frame x n] arrays of boxed rows, allocated at creation, and a
    teardown that scans every slot. Kept as the model that
    [test_frame]'s differential checks {!Frame.Schedule} against: the
    same slot choices, swap chains, errors and removals. Do not use it
    in simulators. *)

type t

val create : n:int -> frame:int -> t

val n : t -> int
val frame : t -> int

val output_of : t -> slot:int -> input:int -> int option
val input_of : t -> slot:int -> output:int -> int option

val output_at : t -> slot:int -> input:int -> int
(** As {!output_of}, but [-1] when the input is idle in the slot:
    allocation-free, for per-slot loops. *)

val place : t -> slot:int -> input:int -> output:int -> unit
(** Direct placement; raises [Invalid_argument] if either side of the
    pair is already busy in the slot. Used to set up literal schedules
    (e.g. the Figure 2 example). *)

val input_free : t -> slot:int -> input:int -> bool
val output_free : t -> slot:int -> output:int -> bool

val reserved_count : t -> input:int -> output:int -> int
(** Cells per frame currently scheduled for the pair. *)

val to_reservation : t -> Frame.Reservation.t

type add_outcome = {
  steps : int;  (** connections placed or moved, >= 1 *)
  moves : (int * int * int * int) list;
      (** [(from_slot, to_slot, input, output)] displacements, in order *)
}

val add_cell : t -> input:int -> output:int -> (add_outcome, string) result
(** Insert one cell using the Slepian–Duguid swap chain. Fails (with a
    diagnostic) only when the implied reservation matrix would be
    inadmissible. *)

val add_reservation :
  t -> input:int -> output:int -> cells:int -> (int, string) result
(** Add [cells] one at a time; returns total steps. *)

val remove_cell : t -> input:int -> output:int -> bool
(** Remove one scheduled cell of the pair (the one in the latest slot);
    false if none was scheduled. Used when a circuit is torn down or
    paged out. *)

val valid : t -> bool
(** Every slot is a partial permutation with consistent cross-indexes. *)

val copy : t -> t

val pp : Format.formatter -> t -> unit
(** Figure-2-style rendering: one line per slot with [i->o] pairs
    (1-indexed, as in the paper). *)
