(** Cell arrival processes for the switch simulators.

    A pattern is queried once per (slot, input) and yields the
    destinations of the cells arriving at that input in that slot
    (usually zero or one; the deterministic {!fixed} pattern may
    deliver several to keep queues backlogged). All stochastic
    patterns are parameterized by [load], the per-input arrival
    probability per slot, so a load of 1.0 saturates an input link. *)

type gen =
  | Single of (slot:int -> input:int -> int)
      (** At most one cell per (slot, input): its destination, or -1
          when none arrives. Querying draws from the pattern's rng, so
          each (slot, input) is queried once, in slot-major order. *)
  | Fixed of int list array
      (** The same destinations, per input, every slot. *)

type t = private { n : int;  (** inputs *) gen : gen }
(** Exposed so a slot loop can inject without allocating; build one
    with the constructors below. *)

val arrivals : t -> slot:int -> input:int -> int list
(** Destinations of the cells arriving at [input] in [slot]. *)

val uniform : rng:Netsim.Rng.t -> n:int -> load:float -> t
(** Bernoulli arrivals, destination uniform over all outputs — the
    assumption under which Karol et al. derive the 58.6% FIFO limit. *)

val bursty : rng:Netsim.Rng.t -> n:int -> load:float -> mean_burst:float -> t
(** On/off (geometric burst length) arrivals; all cells of a burst go
    to one destination — the correlated traffic a LAN actually sees. *)

val hotspot : rng:Netsim.Rng.t -> n:int -> load:float -> hot_fraction:float -> t
(** Uniform arrivals, except a [hot_fraction] of cells all target
    output 0 (a popular file server). *)

val permutation : rng:Netsim.Rng.t -> n:int -> load:float -> t
(** Input [i] sends only to output [(i + 1) mod n]: contention-free,
    so any sane scheduler should achieve the full offered load. *)

val fixed : (int * int) list -> n:int -> t
(** Deterministic saturating pattern: every slot, each listed
    [(input, output)] pair receives one arrival, keeping that
    virtual-circuit queue permanently backlogged. Used for the
    paper's starvation scenario (§3: input 1 -> {2,3},
    input 4 -> {3}). *)
