(* E35: control-plane saturation — the circuit-setup TPS wall.

   An open-loop workload (Poisson base + diurnal ramp + heavy-tail
   bursts) drives Lifecycle setups and sharded Bandwidth_central
   admissions at a swept offered rate; the knee is the highest rate
   the control plane sustains before its backlog diverges, found the
   way tezos' bin_tps_evaluation measures chain TPS. Each family runs
   twice: the pre-PR baseline structure (one admission shard, no path
   cache, unbatched table writes) and this PR's control plane (4
   shards + escrow, version-keyed path cache, batched writes), under
   the same cost model. The bench asserts the improved knee is >= 2x
   the baseline knee on every family, and that a rate point replays
   byte-identically across domains.

   Usage: dune exec bench/exp_tps.exe [-- --smoke] [-- --out FILE] *)

let profile duration_ms =
  { An2.Workload.default_profile with duration = Netsim.Time.ms duration_ms }

type cell = {
  config_name : string;
  knee_tps : float;
  p50_us : float;  (* at the knee *)
  p99_us : float;
  established : int;
  granted : int;
  denied : int;
  cross_shard : int;
  escrow_conflicts : int;
  cache_hits : int;
  cache_misses : int;
  points : Faults.Tps.point list;
  seconds : float;
}

type family = {
  family_name : string;
  switches : int;
  hosts : int;
  baseline : cell;
  improved : cell;
  ratio : float;
}

let run_cell ~config_name ~mk_graph ~config ~profile =
  let (knee, points), seconds =
    Util.time (fun () -> Faults.Tps.find_knee ~mk_graph config profile)
  in
  (* The knee is always a probed, sustained rate; report its point. *)
  let at_knee =
    match List.find_opt (fun p -> p.Faults.Tps.rate = knee) points with
    | Some p -> p
    | None -> List.hd points
  in
  {
    config_name;
    knee_tps = knee;
    p50_us = at_knee.Faults.Tps.p50_us;
    p99_us = at_knee.Faults.Tps.p99_us;
    established = at_knee.Faults.Tps.established;
    granted = at_knee.Faults.Tps.granted;
    denied = at_knee.Faults.Tps.denied;
    cross_shard = at_knee.Faults.Tps.cross_shard;
    escrow_conflicts = at_knee.Faults.Tps.escrow_conflicts;
    cache_hits = at_knee.Faults.Tps.cache_hits;
    cache_misses = at_knee.Faults.Tps.cache_misses;
    points;
    seconds;
  }

let run_family ~name ~mk_graph ~profile =
  let g = mk_graph () in
  let baseline =
    run_cell ~config_name:"baseline" ~mk_graph
      ~config:Faults.Tps.baseline_config ~profile
  in
  Printf.printf
    "E35 %-12s baseline: knee %7.0f tps, p99 %8.0f us at knee (%.1fs)\n%!"
    name baseline.knee_tps baseline.p99_us baseline.seconds;
  let improved =
    run_cell ~config_name:"improved" ~mk_graph
      ~config:Faults.Tps.improved_config ~profile
  in
  Printf.printf
    "E35 %-12s improved: knee %7.0f tps, p99 %8.0f us at knee (%.1fs)  \
     ratio %.2fx\n%!"
    name improved.knee_tps improved.p99_us improved.seconds
    (improved.knee_tps /. baseline.knee_tps);
  {
    family_name = name;
    switches = Topo.Graph.switch_count g;
    hosts = Topo.Graph.host_count g;
    baseline;
    improved;
    ratio = improved.knee_tps /. baseline.knee_tps;
  }

let point_json (p : Faults.Tps.point) =
  let open Obs.Json in
  Obj
    [
      ("rate", Num p.rate);
      ("offered", Num p.offered_rate);
      ("arrivals", Util.int p.arrivals);
      ("established", Util.int p.established);
      ("failed", Util.int p.failed);
      ("granted", Util.int p.granted);
      ("denied", Util.int p.denied);
      ("p50_us", Num p.p50_us);
      ("p99_us", Num p.p99_us);
      ("final_backlog", Util.int p.final_backlog);
      ("peak_backlog", Util.int p.peak_backlog);
      ("diverged", Bool p.diverged);
      ("cross_shard", Util.int p.cross_shard);
      ("escrow_conflicts", Util.int p.escrow_conflicts);
      ("cache_hits", Util.int p.cache_hits);
      ("cache_misses", Util.int p.cache_misses);
      ("sim_events", Util.int p.sim_events);
      ( "backlog_curve",
        Arr
          (Array.to_list
             (Array.map
                (fun (t, b) -> Arr [ Num t; Util.int b ])
                p.backlog_curve))
      );
    ]

let cell_json c =
  let open Obs.Json in
  Obj
    [
      ("config", Str c.config_name);
      ("knee_tps", Num c.knee_tps);
      ("p50_us_at_knee", Num c.p50_us);
      ("p99_us_at_knee", Num c.p99_us);
      ("established", Util.int c.established);
      ("granted", Util.int c.granted);
      ("denied", Util.int c.denied);
      ("cross_shard", Util.int c.cross_shard);
      ("escrow_conflicts", Util.int c.escrow_conflicts);
      ("cache_hits", Util.int c.cache_hits);
      ("cache_misses", Util.int c.cache_misses);
      ("seconds", Num c.seconds);
      ("points", Arr (List.map point_json c.points));
    ]

let family_json f =
  let open Obs.Json in
  Obj
    [
      ("family", Str f.family_name);
      ("switches", Util.int f.switches);
      ("hosts", Util.int f.hosts);
      ("knee_ratio", Num f.ratio);
      ("cells", Arr [ cell_json f.baseline; cell_json f.improved ]);
    ]

let () =
  let cli = Util.cli ~default_out:"BENCH_tps.json" in
  let profile = profile (if cli.smoke then 200 else 500) in
  let specs =
    if cli.smoke then
      [
        ("src-lan", fun () -> Topo.Build.src_lan ());
        ("fat-tree:8", fun () -> fst (Topo.Build.fat_tree ~k:8));
      ]
    else
      [
        ("src-lan", fun () -> Topo.Build.src_lan ());
        ("fat-tree:16", fun () -> fst (Topo.Build.fat_tree ~k:16));
      ]
  in
  let families =
    List.map
      (fun (name, mk_graph) -> run_family ~name ~mk_graph ~profile)
      specs
  in
  (* Determinism, measured: the same rate point across profile seeds,
     one domain vs many — byte-identical results required. *)
  let job seed =
    Faults.Tps.run_point
      ~graph:(Topo.Build.src_lan ())
      Faults.Tps.improved_config
      (An2.Workload.scale (An2.Workload.with_seed profile seed) ~rate:4000.0)
  in
  let seed_list = [ 1; 2; 3 ] in
  let seq = Netsim.Sweep.map ~domains:1 ~seeds:seed_list job in
  let par = Netsim.Sweep.map ~seeds:seed_list job in
  let deterministic = seq = par in
  Printf.printf "seq/par deterministic: %b\n%!" deterministic;
  Util.write_json cli ~schema:"an2-tps-v1"
    [
      ("deterministic", Obs.Json.Bool deterministic);
      ("e35_knee", Obs.Json.Arr (List.map family_json families));
    ];
  (* The acceptance gate: the knee-raisers must actually raise it. *)
  let floor = if cli.smoke then 1.0 else 2.0 in
  let raised = List.for_all (fun f -> f.ratio >= floor) families in
  if not raised then
    List.iter
      (fun f ->
        if f.ratio < floor then
          Printf.eprintf "E35 %s: knee ratio %.2f below %.1fx floor\n"
            f.family_name f.ratio floor)
      families;
  if not (deterministic && raised) then exit 1
