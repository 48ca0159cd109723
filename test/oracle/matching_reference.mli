(** The original list-based matching kernels, retained as the
    executable specification of the bitset kernels.

    Each submodule mirrors the public API of its production
    counterpart and must produce *bit-identical* outcomes for the same
    request matrix and RNG stream; the qcheck differential tests in
    [test_matching] enforce this. Keep this module boring: any
    optimization belongs in the production kernels, not here. *)

module Pim : sig
  val run : rng:Netsim.Rng.t -> Matching.Request.t -> iterations:int -> Matching.Outcome.t
  val iterations_to_maximal : rng:Netsim.Rng.t -> Matching.Request.t -> int
end

module Islip : sig
  type t

  val create : int -> t
  val run : t -> Matching.Request.t -> iterations:int -> Matching.Outcome.t
end

module Greedy : sig
  val run : ?rng:Netsim.Rng.t -> Matching.Request.t -> Matching.Outcome.t
end

module Hopcroft_karp : sig
  val run : Matching.Request.t -> Matching.Outcome.t
end
