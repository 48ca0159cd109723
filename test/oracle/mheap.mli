(** Imperative binary min-heap, parameterized by an integer priority.

    The event queue of {!Engine_reference}, the seed's engine, and the
    model that [test_engine_pool] checks {!Netsim.Eheap} against. Ties
    are broken by insertion order (FIFO among equal priorities). *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val add : 'a t -> prio:int -> 'a -> unit
(** Insert an element with the given priority. *)

val min_prio : 'a t -> int option
(** Priority of the minimum element, if any. *)

val min : 'a t -> (int * 'a) option
(** The minimum element and its priority, left in place. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum element (FIFO among ties). *)

val clear : 'a t -> unit
