(** Growable ring-buffer FIFO.

    Drop-in replacement for the [Stdlib.Queue] uses in the switch
    models: pushes and pops in steady state are allocation-free
    (Stdlib.Queue conses a cell per [add]), which is what lets the VOQ
    slot loop run without touching the minor heap. *)

type 'a t

val create : dummy:'a -> 'a t
(** An empty queue. [dummy] fills unused backing-array slots (and
    overwrites popped ones, so departed cells are not retained). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Enqueue at the back. Amortized O(1); allocates only when the
    backing array doubles. *)

val pop : 'a t -> 'a
(** Dequeue the front element. Raises [Invalid_argument] if empty. *)

val peek : 'a t -> 'a
val peek_opt : 'a t -> 'a option
