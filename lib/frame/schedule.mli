(** Frame schedules for guaranteed traffic and the Slepian–Duguid
    insertion algorithm (paper §4, Figures 2 and 3).

    A schedule assigns to each of the [frame] time slots a partial
    permutation of inputs to outputs. Adding a one-cell reservation
    never rebuilds the schedule: the swap-chain algorithm moves at
    most N existing connections between two slots.

    Storage is flat: one 16-bit entry per (slot, port) in each
    direction, unscanned by the GC, and one busy bit per (port, slot)
    in each direction, packed 63 slots to a word. All of it is
    allocated at the first placement, so a schedule that never holds a
    cell costs a few words. First fit reads the busy words, a word of
    slots at a time, and allocates nothing. Each input's latest busy
    slot is kept, so {!remove_cell} scans down from it rather than
    across the frame. Every slot or port argument is range-checked:
    out of range raises [Invalid_argument]. *)

type t

val create : n:int -> frame:int -> t
(** Raises [Invalid_argument] unless [1 <= n <= 65535] and
    [frame >= 1]. *)

val n : t -> int
val frame : t -> int

val cell_count : t -> int
(** Cells scheduled over the whole frame, in O(1): zero for a schedule
    that was never placed into. *)

val output_of : t -> slot:int -> input:int -> int option
val input_of : t -> slot:int -> output:int -> int option

val output_at : t -> slot:int -> input:int -> int
(** As {!output_of}, but [-1] when the input is idle in the slot:
    allocation-free, for per-slot loops. *)

val place : t -> slot:int -> input:int -> output:int -> unit
(** Direct placement; raises [Invalid_argument] if either side of the
    pair is already busy in the slot, or if the slot or a port is out
    of range. Used to set up literal schedules (e.g. the Figure 2
    example) and to restore snapshots. *)

val input_free : t -> slot:int -> input:int -> bool
val output_free : t -> slot:int -> output:int -> bool

val reserved_count : t -> input:int -> output:int -> int
(** Cells per frame currently scheduled for the pair. *)

val to_reservation : t -> Reservation.t

type add_outcome = {
  steps : int;  (** connections placed or moved, >= 1 *)
  moves : (int * int * int * int) list;
      (** [(from_slot, to_slot, input, output)] displacements, in order *)
}

val add_cell : t -> input:int -> output:int -> (add_outcome, string) result
(** Insert one cell using the Slepian–Duguid swap chain. Fails (with a
    diagnostic) only when the implied reservation matrix would be
    inadmissible. The cell goes to the first slot in which both ports
    are idle; only when there is none does the chain run, between the
    input's first idle slot and the output's. An insertion that needs
    no chain allocates nothing. *)

val add_reservation :
  t -> input:int -> output:int -> cells:int -> (int, string) result
(** Add [cells] one at a time; returns total steps. *)

val remove_cell : t -> input:int -> output:int -> bool
(** Remove one scheduled cell of the pair (the one in the latest slot);
    false if none was scheduled. Used when a circuit is torn down or
    paged out. *)

val valid : t -> bool
(** Every slot is a partial permutation with consistent cross-indexes,
    and the busy bits agree with the tables. *)

val copy : t -> t

val pp : Format.formatter -> t -> unit
(** Figure-2-style rendering: one line per slot with [i->o] pairs
    (1-indexed, as in the paper). *)
