(* E30/E31: partition-and-heal survivability.

   E30 (split/heal): cut a separator on the SRC LAN and on random
   12-switch graphs (a different graph per seed), let both sides
   reconfigure to divergent epochs while intra-side circuits keep
   serving, restore the cut and measure the heal — convergence,
   agreement, true topology, tag reconciliation, heal time against the
   E8 single-link-failure baseline on the same topology, fraction of
   intra traffic preserved, and orphaned-entry leaks (must be zero).
   A one-sided-heal family forces convergence through the stale-invite
   Reject path.

   E31 (re-admission storm): after the heal, every severed circuit
   re-establishes through the signaling plane at once; paced admission
   is compared with the naive storm on completion time and the worst
   per-switch signaling backlog.

   One cell is re-run sequentially and in parallel and compared, so
   the determinism claim is measured here too. Results land in
   BENCH_partition.json.

   Usage: dune exec bench/exp_partition.exe [-- --smoke] [-- --out FILE] *)

let src_lan _seed = Topo.Build.src_lan ()

let random_graph seed =
  let rng = Netsim.Rng.create (1000 + seed) in
  Topo.Build.random_connected ~rng ~switches:12 ~extra_links:6

(* The E8 baseline on the same topology: one link fails, the adjacent
   switches detect it after the same delay, one configuration spreads.
   The partition heal does strictly more work (two divergent sides to
   reconcile), so this is the floor it is compared against. *)
let baseline_heal_ms graph seed =
  let g = graph seed in
  let o =
    Reconfig.Runner.run_after_failure g
      ~detection_delay:(Netsim.Time.ms 1)
      ~fail:(`Link 0)
  in
  if o.Reconfig.Runner.converged then Netsim.Time.to_ms o.Reconfig.Runner.elapsed
  else nan

let partition_job ~graph ~circuits ~one_sided seed =
  Faults.Partition.run ~graph:(graph seed)
    {
      Faults.Partition.default_params with
      circuits;
      one_sided_heal = one_sided;
      seed;
    }

type family = {
  name : string;
  seeds : int;
  healed : int;  (** converged + agreement + true topology *)
  divergent : int;
  reconciled : int;
  heal_mean_ms : float;
  heal_max_ms : float;
  baseline_mean_ms : float;
  intra_preserved_mean : float;
  intra_preserved_min : float;
  zero_leaks : bool;
  all_served : bool;
  all_drained : bool;
  seconds : float;
}

let run_family ~name ~graph ~circuits ~one_sided ~seeds =
  let results, seconds =
    Util.time (fun () ->
        Netsim.Sweep.map
          ~seeds:(List.init seeds (fun i -> 1 + i))
          (partition_job ~graph ~circuits ~one_sided))
  in
  let outs = List.map snd results in
  let count f = List.length (List.filter f outs) in
  let sum f = List.fold_left (fun a r -> a +. f r) 0.0 outs in
  let n = float_of_int seeds in
  let baselines =
    List.filter (fun x -> not (Float.is_nan x))
      (List.init seeds (fun i -> baseline_heal_ms graph (1 + i)))
  in
  {
    name;
    seeds;
    healed =
      count (fun r ->
          r.Faults.Partition.heal_converged
          && r.Faults.Partition.heal_agreement
          && r.Faults.Partition.heal_topology_correct);
    divergent = count (fun r -> r.Faults.Partition.divergent);
    reconciled = count (fun r -> r.Faults.Partition.heal_reconciled);
    heal_mean_ms =
      sum (fun r -> Netsim.Time.to_ms r.Faults.Partition.heal_elapsed) /. n;
    heal_max_ms =
      List.fold_left
        (fun a r -> Float.max a (Netsim.Time.to_ms r.Faults.Partition.heal_elapsed))
        0.0 outs;
    baseline_mean_ms =
      (match baselines with
      | [] -> nan
      | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l));
    intra_preserved_mean = sum (fun r -> r.Faults.Partition.intra_preserved) /. n;
    intra_preserved_min =
      List.fold_left
        (fun a r -> Float.min a r.Faults.Partition.intra_preserved)
        1.0 outs;
    zero_leaks =
      List.for_all
        (fun r ->
          r.Faults.Partition.leaks_after_split_gc = 0
          && r.Faults.Partition.leaks_final = 0)
        outs;
    all_served =
      List.for_all (fun r -> r.Faults.Partition.all_served_at_end) outs;
    all_drained = List.for_all (fun r -> r.Faults.Partition.drained) outs;
    seconds;
  }

type storm = {
  pace_us : int;
  storm_seeds : int;
  readmitted : int;
  failed : int;
  readmit_mean_ms : float;
  readmit_max_ms : float;
  backlog_max : int;
  storm_drained : bool;
  storm_seconds : float;
}

let run_storm ~circuits ~pace_us ~seeds =
  let job seed =
    Faults.Partition.run ~graph:(src_lan seed)
      {
        Faults.Partition.default_params with
        circuits;
        lifecycle =
          {
            An2.Lifecycle.default_params with
            pace = Netsim.Time.us pace_us;
          };
        seed;
      }
  in
  let results, storm_seconds =
    Util.time (fun () ->
        Netsim.Sweep.map ~seeds:(List.init seeds (fun i -> 1 + i)) job)
  in
  let outs = List.map snd results in
  let sumi f = List.fold_left (fun a r -> a + f r) 0 outs in
  let n = float_of_int seeds in
  {
    pace_us;
    storm_seeds = seeds;
    readmitted = sumi (fun r -> r.Faults.Partition.readmitted);
    failed = sumi (fun r -> r.Faults.Partition.readmit_failed);
    readmit_mean_ms =
      List.fold_left
        (fun a r -> a +. Netsim.Time.to_ms r.Faults.Partition.readmit_elapsed)
        0.0 outs
      /. n;
    readmit_max_ms =
      List.fold_left
        (fun a r ->
          Float.max a (Netsim.Time.to_ms r.Faults.Partition.readmit_elapsed))
        0.0 outs;
    backlog_max =
      List.fold_left
        (fun a r -> max a r.Faults.Partition.worst_signaling_backlog)
        0 outs;
    storm_drained = List.for_all (fun r -> r.Faults.Partition.drained) outs;
    storm_seconds;
  }

let family_json f =
  let open Obs.Json in
  Obj
    [
      ("family", Str f.name);
      ("seeds", Util.int f.seeds);
      ("healed", Util.int f.healed);
      ("divergent", Util.int f.divergent);
      ("reconciled", Util.int f.reconciled);
      ("heal_mean_ms", Num f.heal_mean_ms);
      ("heal_max_ms", Num f.heal_max_ms);
      ("baseline_single_link_ms", Num f.baseline_mean_ms);
      ("intra_preserved_mean", Num f.intra_preserved_mean);
      ("intra_preserved_min", Num f.intra_preserved_min);
      ("zero_leaks", Bool f.zero_leaks);
      ("all_served", Bool f.all_served);
      ("all_drained", Bool f.all_drained);
      ("seconds", Num f.seconds);
    ]

let storm_json s =
  let open Obs.Json in
  Obj
    [
      ("pace_us", Util.int s.pace_us);
      ("seeds", Util.int s.storm_seeds);
      ("readmitted", Util.int s.readmitted);
      ("failed", Util.int s.failed);
      ("readmit_mean_ms", Num s.readmit_mean_ms);
      ("readmit_max_ms", Num s.readmit_max_ms);
      ("worst_backlog", Util.int s.backlog_max);
      ("all_drained", Bool s.storm_drained);
      ("seconds", Num s.storm_seconds);
    ]

let () =
  let cli = Util.cli ~default_out:"BENCH_partition.json" in
  let seeds = if cli.smoke then 4 else 25 in
  let circuits = if cli.smoke then 8 else 16 in
  let specs =
    [
      ("src-lan", src_lan, false);
      ("random-12", random_graph, false);
      ("src-lan-one-sided", src_lan, true);
    ]
  in
  let families =
    List.map
      (fun (name, graph, one_sided) ->
        let f = run_family ~name ~graph ~circuits ~one_sided ~seeds in
        Printf.printf
          "E30 %-18s: healed %d/%d, divergent %d, reconciled %d, heal \
           %.2f/%.2f ms (baseline %.2f ms), intra preserved %.4f (min \
           %.4f), zero-leaks=%b served=%b drained=%b (%.1fs)\n%!"
          f.name f.healed f.seeds f.divergent f.reconciled f.heal_mean_ms
          f.heal_max_ms f.baseline_mean_ms f.intra_preserved_mean
          f.intra_preserved_min f.zero_leaks f.all_served f.all_drained
          f.seconds;
        f)
      specs
  in
  let storm_circuits = if cli.smoke then 16 else 40 in
  let storm_seeds = if cli.smoke then 3 else 10 in
  let storms =
    List.map
      (fun pace_us ->
        let s = run_storm ~circuits:storm_circuits ~pace_us ~seeds:storm_seeds in
        Printf.printf
          "E31 pace %4dus: %d readmitted, %d failed, completion %.2f/%.2f \
           ms, worst backlog %d, drained=%b (%.1fs)\n%!"
          s.pace_us s.readmitted s.failed s.readmit_mean_ms s.readmit_max_ms
          s.backlog_max s.storm_drained s.storm_seconds;
        s)
      [ 0; 500; 2000 ]
  in
  (* Determinism, measured: one family cell, domains 1 vs many. *)
  let job = partition_job ~graph:random_graph ~circuits ~one_sided:false in
  let seed_list = List.init seeds (fun i -> 1 + i) in
  let seq = Netsim.Sweep.map ~domains:1 ~seeds:seed_list job in
  let par = Netsim.Sweep.map ~seeds:seed_list job in
  let deterministic = seq = par in
  Printf.printf "seq/par deterministic: %b\n%!" deterministic;
  let healed_everywhere =
    List.for_all (fun f -> f.healed = f.seeds && f.zero_leaks) families
  in
  let storms_ok =
    List.for_all (fun s -> s.failed = 0 && s.storm_drained) storms
  in
  Util.write_json cli ~schema:"an2-partition-v1"
    [
      ("deterministic", Obs.Json.Bool deterministic);
      ("e30_split_heal", Obs.Json.Arr (List.map family_json families));
      ("e31_readmission_storm", Obs.Json.Arr (List.map storm_json storms));
    ];
  if not (deterministic && healed_everywhere && storms_ok) then exit 1
