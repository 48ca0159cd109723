(** Parallel iterative matching as the distributed algorithm it really
    is (paper §3): "the processing takes place in parallel at the line
    cards, with limited communication between them ... The
    request/grant/accept signals are sent on dedicated wires, one in
    each direction between each input and output."

    {!Pim} computes the same matching monolithically; this module runs
    the protocol as 2N communicating line-card processes on the
    discrete-event engine, with a propagation delay on every dedicated
    wire and an arbitration-logic delay at every decision. That makes
    the paper's half-microsecond budget checkable: one iteration costs
    three wire crossings plus two arbitration steps, so three
    iterations at board-level delays fit comfortably inside a 500 ns
    cell slot. *)

type timing = {
  wire : Netsim.Time.t;  (** request/grant/accept propagation *)
  logic : Netsim.Time.t;  (** arbitration at a line card *)
}

val default_timing : timing
(** 5 ns wires, 40 ns arbitration — early-90s board-level numbers.
    {!run} always uses these. *)

type outcome = {
  matching : Outcome.t;
  elapsed : Netsim.Time.t;  (** protocol start to last accept landing *)
}

val run : rng:Netsim.Rng.t -> Request.t -> iterations:int -> outcome
(** Run [iterations] rounds (fewer if a round adds no pair) with the
    fixed {!default_timing}. *)

val iteration_time : timing -> Netsim.Time.t
(** 3 wires + 2 logic steps: the per-iteration budget. *)

val fits_slot : timing -> iterations:int -> slot:Netsim.Time.t -> bool
(** Whether [iterations] rounds complete within a cell slot (the AN2
    design point: 3 iterations in 500 ns). *)
