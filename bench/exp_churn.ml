(* Churn robustness sweep.

   Runs the fault-injection churn harness over a grid of fault rate
   (random Poisson link faults per second) x flap period (one link
   flapping with a fixed duty cycle) on the SRC-LAN topology, several
   seeds per cell fanned over domains with [Netsim.Sweep]. Each cell
   reports how the control plane kept up — reconfiguration convergence
   time, skeptic probation levels — and what the data plane paid:
   cells lost per fault event. One cell is re-run sequentially and in
   parallel and compared, so the determinism claim is measured here
   too, not only in the test suite. Results land in BENCH_churn.json.

   Usage: dune exec bench/exp_churn.exe [-- --smoke] [-- --out FILE] *)

let switch_links g =
  List.filter_map
    (fun l ->
      match (l.Topo.Graph.a.node, l.Topo.Graph.b.node) with
      | Topo.Graph.Switch _, Topo.Graph.Switch _ -> Some l.Topo.Graph.link_id
      | _ -> None)
    (Topo.Graph.links g)

let churn_job ~duration ~fault_rate ~flap_period_ms seed =
  let g = Topo.Build.src_lan ~hosts:0 () in
  let half = Netsim.Time.ms (max 1 (flap_period_ms / 2)) in
  let schedule =
    [
      Faults.Schedule.Random_churn
        {
          seed;
          start = Netsim.Time.ms 50;
          until = duration;
          rate = fault_rate;
          mean_downtime = Netsim.Time.ms 200;
          links = switch_links g;
        };
      Faults.Schedule.Flap
        {
          link = 0;
          start = Netsim.Time.ms 100;
          until = duration;
          down_for = half;
          up_for = half;
        };
    ]
  in
  Faults.Churn.run ~graph:g
    { Faults.Churn.default_params with schedule; duration; seed }

type cell = {
  fault_rate : float;
  flap_period_ms : int;
  seeds : int;
  faults : int;
  transitions : int;
  reconfigs : int;
  converged_fraction : float;
  convergence_mean_ms : float;
  convergence_max_ms : float;
  cells_lost : float;
  cells_lost_per_event : float;
  max_skeptic_level : int;
  flow_lossless : bool;
  all_drained : bool;
  seconds : float;
}

let run_cell ~duration ~seeds ~fault_rate ~flap_period_ms =
  let results, seconds =
    Util.time (fun () ->
        Netsim.Sweep.map ~seeds:(List.init seeds (fun i -> 1 + i)) (fun s ->
            churn_job ~duration ~fault_rate ~flap_period_ms s))
  in
  let outs = List.map snd results in
  let sum f = List.fold_left (fun a r -> a +. f r) 0.0 outs in
  let sumi f = List.fold_left (fun a r -> a + f r) 0 outs in
  let n = float_of_int (List.length outs) in
  let reconfigs = sumi (fun r -> r.Faults.Churn.reconfigs) in
  let converged = sumi (fun r -> r.Faults.Churn.reconfigs_converged) in
  {
    fault_rate;
    flap_period_ms;
    seeds;
    faults = sumi (fun r -> r.Faults.Churn.faults_injected);
    transitions = sumi (fun r -> r.Faults.Churn.transitions);
    reconfigs;
    converged_fraction =
      (if reconfigs = 0 then 1.0
       else float_of_int converged /. float_of_int reconfigs);
    convergence_mean_ms = sum (fun r -> r.Faults.Churn.convergence_mean_ms) /. n;
    convergence_max_ms =
      List.fold_left
        (fun a r -> Float.max a r.Faults.Churn.convergence_max_ms)
        0.0 outs;
    cells_lost = sum (fun r -> r.Faults.Churn.cells_lost);
    cells_lost_per_event =
      sum (fun r -> r.Faults.Churn.cells_lost_per_event) /. n;
    max_skeptic_level =
      List.fold_left (fun a r -> max a r.Faults.Churn.max_skeptic_level) 0 outs;
    flow_lossless = List.for_all (fun r -> r.Faults.Churn.flow_lossless) outs;
    all_drained = List.for_all (fun r -> r.Faults.Churn.drained) outs;
    seconds;
  }

let cell_json c =
  let open Obs.Json in
  Obj
    [
      ("fault_rate", Num c.fault_rate);
      ("flap_period_ms", Util.int c.flap_period_ms);
      ("seeds", Util.int c.seeds);
      ("faults", Util.int c.faults);
      ("transitions", Util.int c.transitions);
      ("reconfigs", Util.int c.reconfigs);
      ("converged_fraction", Num c.converged_fraction);
      ("convergence_mean_ms", Num c.convergence_mean_ms);
      ("convergence_max_ms", Num c.convergence_max_ms);
      ("cells_lost", Num c.cells_lost);
      ("cells_lost_per_event", Num c.cells_lost_per_event);
      ("max_skeptic_level", Util.int c.max_skeptic_level);
      ("flow_lossless", Bool c.flow_lossless);
      ("all_drained", Bool c.all_drained);
      ("seconds", Num c.seconds);
    ]

let () =
  let cli = Util.cli ~default_out:"BENCH_churn.json" in
  let duration_ms = if cli.smoke then 2_000 else 10_000 in
  let duration = Netsim.Time.ms duration_ms in
  let seeds = if cli.smoke then 2 else 4 in
  let rates = [ 1.0; 4.0; 10.0 ] in
  let periods = [ 100; 300; 1000 ] in
  let cells =
    List.concat_map
      (fun fault_rate ->
        List.map
          (fun flap_period_ms ->
            let c = run_cell ~duration ~seeds ~fault_rate ~flap_period_ms in
            Printf.printf
              "rate %4.1f/s flap %4dms: %3d faults, %3d reconfigs \
               (%.0f%% converged), convergence %.2f/%.2f ms, %.0f cells/event, \
               skeptic<=%d, drained=%b (%.1fs)\n%!"
              fault_rate flap_period_ms c.faults c.reconfigs
              (100.0 *. c.converged_fraction)
              c.convergence_mean_ms c.convergence_max_ms c.cells_lost_per_event
              c.max_skeptic_level c.all_drained c.seconds;
            c)
          periods)
      rates
  in
  (* Determinism, measured: the middle cell, domains 1 vs many. *)
  let job s = churn_job ~duration ~fault_rate:4.0 ~flap_period_ms:300 s in
  let seed_list = List.init seeds (fun i -> 1 + i) in
  let seq = Netsim.Sweep.map ~domains:1 ~seeds:seed_list job in
  let par = Netsim.Sweep.map ~seeds:seed_list job in
  let deterministic = seq = par in
  Printf.printf "seq/par deterministic: %b\n%!" deterministic;
  if not deterministic then exit 1;
  Util.write_json cli ~schema:"an2-churn-v1"
    [
      ("duration_ms", Util.int duration_ms);
      ("deterministic", Obs.Json.Bool deterministic);
      ("cells", Obs.Json.Arr (List.map cell_json cells));
    ]
