type class_mix = {
  guaranteed_fraction : float;
  cells_min : int;
  cells_max : int;
}

type profile = {
  base_rate : float;
  diurnal_amplitude : float;
  diurnal_period : Netsim.Time.t;
  burst_rate : float;
  burst_alpha : float;
  burst_min : int;
  burst_span : Netsim.Time.t;
  hold_mean : Netsim.Time.t;
  mix : class_mix;
  duration : Netsim.Time.t;
  seed : int;
}

type arrival = {
  at : Netsim.Time.t;
  src_host : int;
  dst_host : int;
  hold : Netsim.Time.t;
  cells : int;
}

let default_profile =
  {
    base_rate = 1000.0;
    diurnal_amplitude = 0.3;
    diurnal_period = Netsim.Time.ms 400;
    burst_rate = 10.0;
    burst_alpha = 1.5;
    burst_min = 4;
    burst_span = Netsim.Time.ms 2;
    hold_mean = Netsim.Time.ms 50;
    mix = { guaranteed_fraction = 0.5; cells_min = 1; cells_max = 4 };
    duration = Netsim.Time.s 1;
    seed = 1;
  }

let scale p ~rate =
  if rate <= 0.0 then invalid_arg "Workload.scale: rate must be positive";
  {
    p with
    base_rate = rate;
    burst_rate = p.burst_rate *. rate /. p.base_rate;
  }

let with_seed p seed = { p with seed }

(* The largest burst a single heavy-tail draw may inject; keeps a
   pathological Pareto draw from swamping the timeline. *)
let burst_cap = 4096

let pareto rng ~alpha ~xm =
  (* Inverse-CDF draw: xm * u^(-1/alpha), u uniform in (0, 1]. *)
  let u = 1.0 -. Netsim.Rng.float rng 1.0 in
  float_of_int xm *. (u ** (-1.0 /. alpha))

let draw_arrival rng p ~hosts ~at =
  let src_host = Netsim.Rng.int rng hosts in
  let dst_host = (src_host + 1 + Netsim.Rng.int rng (hosts - 1)) mod hosts in
  let hold =
    max 1
      (int_of_float
         (Netsim.Rng.exponential rng ~mean:(float_of_int p.hold_mean)))
  in
  let cells =
    if Netsim.Rng.bernoulli rng p.mix.guaranteed_fraction then
      p.mix.cells_min + Netsim.Rng.int rng (p.mix.cells_max - p.mix.cells_min + 1)
    else 0
  in
  { at; src_host; dst_host; hold; cells }

(* Inhomogeneous Poisson base stream by thinning at the diurnal peak
   rate: candidates arrive at the homogeneous peak process and are
   accepted with probability rate(t)/peak. *)
let expand_base rng p ~hosts =
  let peak = p.base_rate *. (1.0 +. abs_float p.diurnal_amplitude) in
  if peak <= 0.0 then []
  else begin
    let period_s = Netsim.Time.to_s p.diurnal_period in
    let rate_at t_ns =
      let t_s = Netsim.Time.to_s t_ns in
      let phase =
        if period_s <= 0.0 then 0.0
        else sin (2.0 *. Float.pi *. t_s /. period_s)
      in
      p.base_rate *. (1.0 +. (p.diurnal_amplitude *. phase))
    in
    let rec go acc t_ns =
      let gap_s = Netsim.Rng.exponential rng ~mean:(1.0 /. peak) in
      let t_ns = t_ns + max 1 (int_of_float (gap_s *. 1e9)) in
      if t_ns >= p.duration then List.rev acc
      else begin
        let accept = Netsim.Rng.float rng peak < rate_at t_ns in
        let acc =
          if accept then draw_arrival rng p ~hosts ~at:t_ns :: acc else acc
        in
        go acc t_ns
      end
    in
    go [] 0
  end

(* Heavy-tail bursts: burst epochs are a homogeneous Poisson process,
   each epoch injecting a Pareto-sized clump spread uniformly over
   [burst_span]. A separate seeded stream, so adding or removing the
   burst component leaves the base stream untouched. *)
let expand_bursts rng p ~hosts =
  if p.burst_rate <= 0.0 then []
  else begin
    let rec go acc t_ns =
      let gap_s = Netsim.Rng.exponential rng ~mean:(1.0 /. p.burst_rate) in
      let t_ns = t_ns + max 1 (int_of_float (gap_s *. 1e9)) in
      if t_ns >= p.duration then List.rev acc
      else begin
        let size =
          min burst_cap
            (int_of_float (pareto rng ~alpha:p.burst_alpha ~xm:p.burst_min))
        in
        let acc = ref acc in
        for _ = 1 to size do
          let at = t_ns + Netsim.Rng.int rng (max 1 p.burst_span) in
          if at < p.duration then
            acc := draw_arrival rng p ~hosts ~at :: !acc
        done;
        go !acc t_ns
      end
    in
    go [] 0
  end

(* Stdlib [List.merge] is not tail-recursive: a long timeline would
   use stack proportional to its length. *)
let[@tail_mod_cons] rec merge base bursts =
  match (base, bursts) with
  | [], rest | rest, [] -> rest
  | b :: base', u :: bursts' ->
    if u.at < b.at then u :: merge base bursts' else b :: merge base' bursts

let expand p ~hosts =
  if hosts < 2 then invalid_arg "Workload.expand: need at least two hosts";
  if p.mix.cells_min < 1 || p.mix.cells_max < p.mix.cells_min then
    invalid_arg "Workload.expand: bad cell mix";
  let base = expand_base (Netsim.Rng.create p.seed) p ~hosts in
  let bursts =
    expand_bursts (Netsim.Rng.create (p.seed + 0x9e3779b9)) p ~hosts
  in
  (* The base stream is generated in time order; only the bursts
     overlap. Sorting them stably and merging with base first on equal
     timestamps gives the order a stable sort of [base @ bursts] gives,
     a deterministic total order, without sorting the base stream. *)
  merge base (List.stable_sort (fun x y -> Int.compare x.at y.at) bursts)
