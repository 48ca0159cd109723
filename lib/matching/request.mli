(** Bipartite request matrices for crossbar scheduling.

    Input [i] requests output [o] when it has at least one buffered
    cell destined for [o] — exactly the information the inputs
    broadcast in step 1 of parallel iterative matching.

    The matrix is stored twice as word-level bitsets: [rows.(i)] has
    bit [o] set when input [i] wants output [o], and [cols.(o)] is the
    transpose. Both views are maintained by every update, so the
    matching kernels can AND a whole row or column of requests against
    an unmatched-port mask in one instruction. Switch sizes are
    limited to {!Netsim.Bits.max_size} (62) ports — far beyond the
    paper's 16-port AN2 crossbar. *)

type t = {
  n : int;  (** switch size (inputs = outputs = n) *)
  rows : int array;  (** [rows.(i)] bit [o]: input [i] wants output [o] *)
  cols : int array;  (** [cols.(o)] bit [i]: the transpose *)
}

val create : int -> t
(** All-false matrix. Raises [Invalid_argument] when [n] exceeds
    {!Netsim.Bits.max_size}. *)

val of_matrix : bool array array -> t
(** Validates squareness. *)

val set : t -> int -> int -> bool -> unit
val get : t -> int -> int -> bool

val clear : t -> unit
(** Drop every request, keeping the allocation. *)

val random : rng:Netsim.Rng.t -> n:int -> density:float -> t
(** Each (input, output) pair requests independently with probability
    [density]. *)

val randomize : rng:Netsim.Rng.t -> density:float -> t -> unit
(** In-place [random]: clears [t] and refills it, consuming the RNG
    exactly as [random] would — lets per-trial loops reuse one
    request matrix without changing their stream. *)

val full : int -> t
(** Every input wants every output (the densest case, worst for
    matching convergence). *)

val request_count : t -> int

val copy : t -> t
