(** Monomorphic 4-ary min-heap over [(time, seq)] keys with one int
    payload per entry, and the only priority queue in the simulator:
    the {!Engine}'s overflow queue for events due a wheel span or more
    ahead of its clock, {!Cluster}'s barrier actions and
    [Topo.Partition]'s searches.

    All storage is parallel unboxed int arrays and every operation is
    allocation-free once the arrays have grown to the working-set
    size. Ties on [time] pop in insertion order (FIFO among
    simultaneous events), which is what makes the engine
    deterministic. Payloads are non-negative ints (for the engine, pool
    slots); the [-1] returned by a failed pop can therefore never
    collide with a real payload. *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

val add : t -> time:int -> slot:int -> unit
(** Insert a payload keyed by [time]; the tie-breaking sequence number
    is assigned internally. [slot] must be [>= 0]. *)

val reserve : t -> int -> int
(** [reserve t n] sets aside [n] consecutive sequence numbers and
    returns the first. Every later {!add} gets a higher one, so an
    entry added with one of them through {!add_ranked} pops as if it
    had been added at the moment of the reservation. Raises
    [Invalid_argument] if [n < 0]. *)

val add_ranked : t -> time:int -> seq:int -> slot:int -> unit
(** Insert a payload keyed by [(time, seq)], with [seq] one that
    {!reserve} handed out; it ties with other entries of the same
    [time] by that number, not by when it was added. Each reserved
    number must be used at most once. Raises [Invalid_argument] if
    [seq] is negative or not handed out yet. *)

val min_time : t -> int
(** Key of the minimum entry, [max_int] if the heap is empty. *)

val pop : t -> int
(** Remove the minimum entry and return its payload, or [-1] if the
    heap is empty. After a successful pop, {!popped_time} is the key
    it carried. Allocation-free. *)

val pop_if_at_most : t -> limit:int -> int
(** [pop_if_at_most t ~limit] pops like {!pop} but only if the minimum
    key is [<= limit]; returns [-1] otherwise. This is the single-root-
    read primitive behind [Engine.run_until]. *)

val popped_time : t -> int
(** Key of the most recently popped entry. Meaningless before the
    first successful pop. *)

val clear : t -> unit
