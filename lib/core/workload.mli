(** Trace-driven open-loop circuit workloads.

    The TPS bench needs production-shaped load: a Poisson base stream
    of circuit setups modulated by a diurnal ramp, with heavy-tail
    bursts layered on top — QUANTAS-style declarative scenarios. Like
    {!Faults.Schedule}, a profile is first {!expand}ed into a
    deterministic, sorted timeline (all randomness comes from the
    profile's seed), and the caller then posts the arrivals onto an
    engine; open-loop means arrivals do not slow down when the network
    backs up, which is exactly what exposes the saturation knee.

    Each arrival is a circuit setup: best-effort ([cells = 0], driven
    through {!Lifecycle}) or guaranteed ([cells > 0], driven through
    {!Bandwidth_central.Service}), held for an exponential [hold] and
    then torn down. *)

type class_mix = {
  guaranteed_fraction : float;  (** share of guaranteed arrivals *)
  cells_min : int;  (** per-frame cells, uniform in [min, max] *)
  cells_max : int;
}

type profile = {
  base_rate : float;
      (** mean base arrivals per simulated second; the rate swings by
          ±30% sinusoidally over a 400 ms period *)
  burst_rate : float;
      (** burst epochs per simulated second; a burst's size is Pareto
          with tail exponent 1.5 and scale (smallest burst) 4 *)
  burst_span : Netsim.Time.t;
      (** a burst's arrivals spread uniformly over this span *)
  mix : class_mix;
  duration : Netsim.Time.t;  (** arrivals stop here; drains continue *)
  seed : int;
}

type arrival = {
  at : Netsim.Time.t;
  src_host : int;
  dst_host : int;  (** always distinct from [src_host] *)
  hold : Netsim.Time.t;
  cells : int;  (** [0] = best-effort, else guaranteed cells/frame *)
}

val default_profile : profile
(** 1000/s base, 10 bursts/s (capped at 4096 arrivals, spread over
    2 ms), half guaranteed at 1–4 cells, 1 s duration, seed 1. *)

val hold_mean : Netsim.Time.t
(** 50 ms: the mean of every arrival's exponential holding time. *)

val scale : profile -> rate:float -> profile
(** Same shape at a different offered load: sets [base_rate] to [rate]
    and scales [burst_rate] proportionally, leaving everything else
    (and the seed) alone. This is the knob the knee-finder sweeps. *)

val with_seed : profile -> int -> profile

val expand : profile -> hosts:int -> arrival list
(** The deterministic arrival timeline, sorted by time (ties keep
    base-stream arrivals before burst arrivals). Pure: equal profiles
    and host counts give equal timelines, which is what makes parallel
    rate sweeps byte-identical to sequential ones. The burst component
    draws from an independent stream derived from [seed], so the base
    stream is unchanged when bursts are turned off ([burst_rate = 0]).
    [hosts] must be at least 2; sources and destinations are uniform
    over [0 .. hosts-1]. *)
