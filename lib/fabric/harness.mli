(** Drives a switch model with a traffic pattern and measures it. *)

type metrics = {
  slots : int;  (** measured slots (after warmup) *)
  offered : int;  (** cells injected during measurement *)
  carried : int;  (** cells departed during measurement *)
  throughput : float;  (** carried / (n * slots): fraction of line rate *)
  mean_delay : float;  (** slots, over cells departing in measurement *)
  p99_delay : float;
  max_delay : float;
  final_occupancy : int;  (** cells still buffered at the end *)
}

val pp_metrics : Format.formatter -> metrics -> unit

val run :
  ?warmup:int ->
  ?obs:Obs.Sink.t ->
  traffic:Traffic.t ->
  model:Model.t ->
  slots:int ->
  unit ->
  metrics
(** Simulate [warmup] slots (default 10% of [slots]) unmeasured, then
    [slots] measured slots. Each slot: arrivals are injected, then the
    model steps once. Delay counts whole slots between arrival and
    departure. Delays are counted in a {!Netsim.Stats.Int_distribution},
    so the mean and percentiles are exact and memory grows with the
    largest delay (at most [warmup + slots]), not with the number of
    cells.
    Raises [Invalid_argument] if [traffic] has fewer inputs than
    [model].

    With an enabled [obs] sink, measured slots additionally feed
    offered/carried counters, a cell-delay histogram
    ([fabric.cell.delay_slots]) and a per-slot trace span (one span
    per measured slot, [ts] = slot number, [args.v] = departures). *)

val saturation_throughput :
  rng:Netsim.Rng.t -> make_model:(unit -> Model.t) -> n:int -> slots:int -> float
(** Carried fraction of line rate under full load (every input always
    backlogged, destinations uniform): the classic saturation
    throughput number (58.6% for FIFO, ~100% for VOQ + PIM). *)
