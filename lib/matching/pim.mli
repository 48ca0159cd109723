(** Parallel iterative matching (paper §3).

    Each iteration runs the three-step request / grant / accept
    protocol over the line cards: unmatched inputs request every
    output they hold cells for; unmatched outputs grant one request
    uniformly at random; inputs accept one grant uniformly at random.
    Matches accumulate across iterations ("iteration fills in the
    gaps"). One iteration can never unmatch a pair, and an iteration
    adds at least one pair whenever the current match is not maximal.

    The implementation works on word-level bitsets (one AND per
    output arbitration) and is stream-compatible with the list-based
    [Pim] of the test-only oracle library
    ([test/oracle/matching_reference.ml]): same request matrix, same
    RNG seed, same matching, bit for bit. *)

type state
(** Preallocated per-switch scratch. One [state] serves any number of
    sequential runs; the fabric slot loop keeps one per switch so
    steady-state scheduling allocates nothing. *)

val create : int -> state
(** Scratch for an [n x n] switch. *)

val run : rng:Netsim.Rng.t -> Request.t -> iterations:int -> Outcome.t
(** Run exactly up to [iterations] rounds (stopping early once
    maximal). AN2 uses [iterations = 3]. [iterations_used] in the
    result is the number of rounds after which the match stopped
    changing or the limit was hit. Allocates its result; hot paths
    should use {!run_into}. *)

val run_into :
  state -> rng:Netsim.Rng.t -> Request.t -> iterations:int -> Outcome.t -> unit
(** As {!run}, but resets and fills a caller-owned outcome:
    allocation-free. Raises [Invalid_argument] when the state or
    outcome size differs from the request's. *)

val iterations_to_maximal : ?state:state -> rng:Netsim.Rng.t -> Request.t -> int
(** Smallest number of iterations after which the match is maximal
    (the quantity the paper bounds by [log2 N + 4/3] on average).
    Passing [?state] reuses its scratch outcome, so a measurement
    loop over thousands of trials does not churn the minor heap. *)
