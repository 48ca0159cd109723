type params = {
  schedule : Schedule.t;
  duration : Netsim.Time.t;
  circuits : int;
  partitions : int;
  domains : int;
  seed : int;
}

let default_params =
  {
    schedule = [];
    duration = Netsim.Time.s 10;
    circuits = 8;
    partitions = 1;
    domains = 1;
    seed = 1;
  }

let circuit_rate = 10_000.0

type result = {
  faults_injected : int;
  transitions : int;
  reconfigs : int;
  reconfigs_converged : int;
  convergence_mean_ms : float;
  convergence_max_ms : float;
  messages : int;
  wire_transmissions : int;
  cells_lost : float;
  cells_lost_per_event : float;
  max_skeptic_level : int;
  flow_checks : int;
  flow_throughput_mean : float;
  flow_lossless : bool;
  drained : bool;
}

type circuit = {
  src : int;
  dst : int;
  mutable route : int list;  (* link ids; [] when blackholed with no path *)
  mutable blackholed_since : Netsim.Time.t option;
}

let run ?(obs = Obs.Sink.null) ~graph p =
  let engine = Netsim.Engine.create ~obs () in
  let obs_on = obs.Obs.Sink.enabled in
  let c_faults = Obs.Sink.counter obs "churn.faults" in
  let c_transitions = Obs.Sink.counter obs "churn.transitions" in
  let c_reconfigs = Obs.Sink.counter obs "churn.reconfigs" in
  let c_reroutes = Obs.Sink.counter obs "churn.reroutes" in
  let c_flow_checks = Obs.Sink.counter obs "churn.flow_checks" in
  let c_cells_lost = Obs.Sink.counter obs "churn.cells_lost" in
  let h_convergence = Obs.Sink.histogram obs "churn.convergence_ms" in
  let h_blackhole = Obs.Sink.histogram obs "churn.blackhole_ms" in
  let h_skeptic = Obs.Sink.histogram obs "churn.skeptic_level" in
  let h_flow = Obs.Sink.histogram obs "churn.flow_throughput" in

  (* Virtual circuits over random distinct switch pairs. *)
  let rng = Netsim.Rng.create p.seed in
  let n_switches = Topo.Graph.switch_count graph in
  let circuits =
    if n_switches < 2 then []
    else
      List.init p.circuits (fun _ ->
          let src = Netsim.Rng.int rng n_switches in
          let dst = (src + 1 + Netsim.Rng.int rng (n_switches - 1)) mod n_switches in
          let route =
            match Topo.Paths.route_links graph ~src ~dst ~tail:[] with
            | Some (_, links) -> links
            | None -> []
          in
          { src; dst; route; blackholed_since = None })
  in
  let cells_lost = ref 0.0 in
  let lose c ~from_ ~until =
    let outage = Netsim.Time.to_s (until - from_) in
    let lost = circuit_rate *. outage in
    cells_lost := !cells_lost +. lost;
    if obs_on then begin
      Obs.Histogram.add h_blackhole (Netsim.Time.to_ms (until - from_));
      Obs.Metrics.Counter.add c_cells_lost (int_of_float lost);
      Obs.Sink.span obs ~name:"blackhole" ~cat:"churn" ~ts:from_
        ~dur:(until - from_) ~tid:c.src ~v:c.dst
    end
  in
  (* Physical-layer view: a circuit starts losing cells the moment any
     link on its route dies, and stops the moment the route is whole
     again (restores can revive it without a reroute). *)
  let check_circuits now =
    List.iter
      (fun c ->
        let broken =
          c.route = []
          || List.exists (fun l -> not (Topo.Graph.link_working graph l)) c.route
        in
        match (broken, c.blackholed_since) with
        | true, None -> c.blackholed_since <- Some now
        | false, Some t0 ->
          lose c ~from_:t0 ~until:now;
          c.blackholed_since <- None
        | _ -> ())
      circuits
  in

  (* Install the fault schedule first: the reconfiguration rounds
     below read its current control-loss window. *)
  let c_faults_obs at action =
    if obs_on then begin
      Obs.Metrics.Counter.incr c_faults;
      Obs.Sink.instant obs ~name:(Fmt.str "%a" Schedule.pp_action action)
        ~cat:"churn" ~ts:at ~tid:0 ~v:0
    end
  in
  let driver =
    Schedule.install ~engine ~graph
      ~on_action:(fun at action ->
        c_faults_obs at action;
        check_circuits at)
      (Schedule.expand p.schedule)
  in

  (* Reconfiguration rounds: declared transitions coalesce into one
     nested protocol run per batch. *)
  let monitors = Hashtbl.create (max 16 (Topo.Graph.link_count graph)) in
  let dirty = Hashtbl.create (max 16 (Topo.Graph.switch_count graph)) in
  let reconfig_pending = ref false in
  let transitions = ref 0 in
  let reconfigs = ref 0 in
  let reconfigs_converged = ref 0 in
  let convergence_sum_ms = ref 0.0 in
  let convergence_max_ms = ref 0.0 in
  let messages = ref 0 in
  let wire_transmissions = ref 0 in
  let max_skeptic = ref 0 in
  let flow_checks = ref 0 in
  let flow_throughput_sum = ref 0.0 in
  let flow_lossless = ref true in

  let flow_validate c now =
    incr flow_checks;
    let hops = max 1 (List.length c.route) in
    let fr =
      Flow.Chain.run
        {
          Flow.Chain.default_params with
          hops;
          duration = Netsim.Time.ms 1;
          seed = p.seed + 104729 + !flow_checks;
        }
    in
    flow_throughput_sum := !flow_throughput_sum +. fr.Flow.Chain.throughput;
    if fr.Flow.Chain.overflowed then flow_lossless := false;
    if obs_on then begin
      Obs.Metrics.Counter.incr c_flow_checks;
      Obs.Histogram.add h_flow fr.Flow.Chain.throughput;
      Obs.Sink.instant obs ~name:"flow_check" ~cat:"churn" ~ts:now ~tid:c.src
        ~v:(int_of_float (fr.Flow.Chain.throughput *. 100.))
    end
  in
  (* The network's repair action: once the protocol has converged (on
     the outer timeline, at [now]), broken circuits are rerouted over
     whatever currently works. Circuits with no path stay blackholed
     until a later round or the end of the run. *)
  let reroute now =
    check_circuits now;
    List.iter
      (fun c ->
        match c.blackholed_since with
        | None -> ()
        | Some t0 -> (
          match Topo.Paths.route_links graph ~src:c.src ~dst:c.dst ~tail:[] with
          | Some (_, links) ->
            lose c ~from_:t0 ~until:now;
            c.blackholed_since <- None;
            c.route <- links;
            if obs_on then Obs.Metrics.Counter.incr c_reroutes;
            flow_validate c now
          | None -> ()))
      circuits
  in
  let run_reconfig () =
    reconfig_pending := false;
    let batch = Hashtbl.fold (fun s () acc -> s :: acc) dirty [] in
    Hashtbl.reset dirty;
    match List.sort compare batch with
    | [] -> ()
    | batch ->
      incr reconfigs;
      let now = Netsim.Engine.now engine in
      let outcome =
        Reconfig.Runner.run
          ~params:
            {
              Reconfig.Runner.default_params with
              control_loss = Schedule.control_loss driver;
              seed = p.seed + (7919 * !reconfigs);
            }
          ~obs ~partitions:p.partitions ~domains:p.domains graph
          ~triggers:(List.map (fun s -> (0, s)) batch)
      in
      messages := !messages + outcome.Reconfig.Runner.messages;
      wire_transmissions :=
        !wire_transmissions + outcome.Reconfig.Runner.wire_transmissions;
      let settle =
        if outcome.Reconfig.Runner.converged then begin
          incr reconfigs_converged;
          let ms = Netsim.Time.to_ms outcome.Reconfig.Runner.elapsed in
          convergence_sum_ms := !convergence_sum_ms +. ms;
          if ms > !convergence_max_ms then convergence_max_ms := ms;
          if obs_on then Obs.Histogram.add h_convergence ms;
          outcome.Reconfig.Runner.elapsed
        end
        else Reconfig.Runner.default_params.horizon
      in
      if obs_on then begin
        Obs.Metrics.Counter.incr c_reconfigs;
        Obs.Sink.span obs ~name:"reconfig" ~cat:"churn" ~ts:now ~dur:settle
          ~tid:0 ~v:(List.length batch)
      end;
      Netsim.Engine.post_at engine ~at:(now + settle) (fun () ->
          reroute (Netsim.Engine.now engine))
  in
  let on_transition link_id ~up at =
    ignore up;
    incr transitions;
    let m = Hashtbl.find monitors link_id in
    let lvl = Reconfig.Monitor.skeptic_level m in
    if lvl > !max_skeptic then max_skeptic := lvl;
    if obs_on then begin
      Obs.Metrics.Counter.incr c_transitions;
      Obs.Histogram.add h_skeptic (float_of_int lvl)
    end;
    let l = Topo.Graph.link graph link_id in
    (match (l.Topo.Graph.a.node, l.Topo.Graph.b.node) with
     | Topo.Graph.Switch a, Topo.Graph.Switch b ->
       Hashtbl.replace dirty a ();
       Hashtbl.replace dirty b ()
     | _ -> ());
    ignore at;
    if not !reconfig_pending then begin
      reconfig_pending := true;
      Netsim.Engine.post engine ~delay:0 run_reconfig
    end
  in

  (* One monitor per switch-to-switch link, dead or alive. *)
  List.iter
    (fun l ->
      match (l.Topo.Graph.a.node, l.Topo.Graph.b.node) with
      | Topo.Graph.Switch _, Topo.Graph.Switch _ ->
        let id = l.Topo.Graph.link_id in
        let m =
          Reconfig.Monitor.create ~engine ~params:Reconfig.Monitor.default_params
            ~link_up:(fun () -> Topo.Graph.link_working graph id)
            ~on_transition:(on_transition id)
        in
        Hashtbl.add monitors id m;
        Reconfig.Monitor.start m
      | _ -> ())
    (Topo.Graph.links graph);

  Netsim.Engine.run_until engine p.duration;
  Schedule.cancel driver;
  Hashtbl.iter (fun _ m -> Reconfig.Monitor.stop m) monitors;
  (* Reconfigurations in flight at the deadline still settle. *)
  Netsim.Engine.run engine;
  let final = max (Netsim.Engine.now engine) p.duration in
  List.iter
    (fun c ->
      match c.blackholed_since with
      | Some t0 ->
        lose c ~from_:t0 ~until:final;
        c.blackholed_since <- None
      | None -> ())
    circuits;
  let drained = Netsim.Engine.pending engine = 0 in
  let faults_injected = Schedule.injected driver in
  {
    faults_injected;
    transitions = !transitions;
    reconfigs = !reconfigs;
    reconfigs_converged = !reconfigs_converged;
    convergence_mean_ms =
      (if !reconfigs_converged = 0 then 0.0
       else !convergence_sum_ms /. float_of_int !reconfigs_converged);
    convergence_max_ms = !convergence_max_ms;
    messages = !messages;
    wire_transmissions = !wire_transmissions;
    cells_lost = !cells_lost;
    cells_lost_per_event =
      (if faults_injected = 0 then 0.0
       else !cells_lost /. float_of_int faults_injected);
    max_skeptic_level = !max_skeptic;
    flow_checks = !flow_checks;
    flow_throughput_mean =
      (if !flow_checks = 0 then 0.0
       else !flow_throughput_sum /. float_of_int !flow_checks);
    flow_lossless = !flow_lossless;
    drained;
  }
