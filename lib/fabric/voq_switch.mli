(** AN2-style switch: random-access input buffers organized as virtual
    output queues, scheduled by a pluggable bipartite matcher (§3).

    A cell is only blocked when its output is busy — never by an
    unrelated cell ahead of it, which is what removes head-of-line
    blocking. *)

type scheduler =
  | Pim of int  (** parallel iterative matching with this many iterations *)
  | Islip of int  (** round-robin pointers, this many iterations *)
  | Greedy_random  (** centralized greedy in random input order *)
  | Maximum  (** Hopcroft-Karp maximum matching (starvation-prone) *)

val create : rng:Netsim.Rng.t -> n:int -> scheduler:scheduler -> Model.t

val create_observed :
  obs:Obs.Sink.t ->
  rng:Netsim.Rng.t ->
  n:int ->
  scheduler:scheduler ->
  on_transfer:(Cell.t -> slot:int -> unit) ->
  Model.t
(** The full constructor: [on_transfer] sees every cell crossing the
    crossbar (the starvation experiment tracks per-virtual-circuit
    service with it). With an enabled [obs] sink the switch counts
    injected/transferred cells, histograms the matching iterations
    used and match size per slot, tracks per-input-port VOQ occupancy
    gauges, and emits a buffered-cells counter track (one trace event
    per slot, timestamped by slot number). With [Obs.Sink.null] every
    probe is one predictable branch and allocates nothing — {!create}
    is this with the null sink and no transfer callback. *)
