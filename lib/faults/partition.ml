type params = {
  circuits : int;
  split_at : Netsim.Time.t;
  heal_at : Netsim.Time.t;
  detection_delay : Netsim.Time.t;
  extra_reconfigs : int;
  one_sided_heal : bool;
  lifecycle : An2.Lifecycle.params;
  partitions : int;
  domains : int;
  seed : int;
}

let default_params =
  {
    circuits = 12;
    split_at = Netsim.Time.ms 100;
    heal_at = Netsim.Time.ms 400;
    detection_delay = Netsim.Time.ms 1;
    extra_reconfigs = 2;
    one_sided_heal = false;
    lifecycle = An2.Lifecycle.default_params;
    partitions = 1;
    domains = 1;
    seed = 1;
  }

type result = {
  switches_a : int;
  switches_b : int;
  cut_links : int;
  split_converged : bool;
  tag_a : Reconfig.Tag.t;
  tag_b : Reconfig.Tag.t;
  divergent : bool;
  intra_circuits : int;
  cross_circuits : int;
  cells_lost_intra : float;
  cells_lost_cross : float;
  intra_preserved : float;
  split_gc_reclaimed : int;
  leaks_after_split_gc : int;
  heal_converged : bool;
  heal_agreement : bool;
  heal_topology_correct : bool;
  heal_tag : Reconfig.Tag.t;
  heal_reconciled : bool;
  heal_elapsed : Netsim.Time.t;
  messages : int;
  readmitted : int;
  readmit_failed : int;
  readmit_elapsed : Netsim.Time.t;
  worst_signaling_backlog : int;
  setup_attempts : int;
  crankbacks : int;
  timeouts : int;
  retries : int;
  gc_reclaimed_total : int;
  leaks_final : int;
  all_served_at_end : bool;
  drained : bool;
}

(* A connected bisection: side B is the BFS subtree whose size is
   closest to half the switches, so both B (a subtree) and A (a tree
   minus a subtree) stay internally connected. *)
let find_separator g =
  let n = Topo.Graph.switch_count g in
  if n < 2 then invalid_arg "Partition.find_separator: need >= 2 switches";
  let { Topo.Spanning.parent; depth; _ } = Topo.Spanning.bfs g ~root:0 in
  let seen = Array.map (fun d -> d >= 0) depth in
  let reachable = Array.fold_left (fun a b -> if b then a + 1 else a) 0 seen in
  if reachable < 2 then
    invalid_arg "Partition.find_separator: working graph has one switch";
  (* Deepest first: children precede parents, so sizes accumulate up. *)
  let size = Array.make n 1 in
  List.iter
    (fun s -> if depth.(s) > 0 then size.(parent.(s)) <- size.(parent.(s)) + size.(s))
    (List.sort (fun a b -> compare depth.(b) depth.(a)) (List.init n Fun.id));
  let best = ref (-1) in
  let best_score = ref max_int in
  for v = n - 1 downto 1 do
    if seen.(v) then begin
      let score = abs ((2 * size.(v)) - reachable) in
      if score <= !best_score then begin
        best_score := score;
        best := v
      end
    end
  done;
  let in_b = Array.make n false in
  for s = 0 to n - 1 do
    if seen.(s) then begin
      let rec under v = v = !best || (depth.(v) > 0 && under parent.(v)) in
      if under s then in_b.(s) <- true
    end
  done;
  let cut =
    List.filter_map
      (fun l ->
        match (l.Topo.Graph.a.node, l.Topo.Graph.b.node) with
        | Topo.Graph.Switch x, Topo.Graph.Switch y
          when l.Topo.Graph.state = Topo.Graph.Working && in_b.(x) <> in_b.(y)
          ->
          Some l.Topo.Graph.link_id
        | _ -> None)
      (Topo.Graph.links g)
  in
  (in_b, cut)

let tag_max a b = if Reconfig.Tag.compare a b >= 0 then a else b

(* Per-circuit loss accounting, as in Churn: a circuit loses
   [Churn.circuit_rate] cells/s while its path is broken or it is
   dark. *)
type cstate = {
  vc : An2.Network.vc;
  mutable since : Netsim.Time.t option;  (* open outage window *)
  mutable lost : float;
  mutable went_dark : bool;  (* the cut severed it; needed re-admission *)
}

let run ?(obs = Obs.Sink.null) ~graph p =
  let g = graph in
  let n = Topo.Graph.switch_count g in
  (* Every switch gets at least one host so circuits can land anywhere. *)
  for s = 0 to n - 1 do
    if Topo.Graph.hosts_of_switch g s = [] then begin
      let h = Topo.Graph.add_host g in
      ignore (Topo.Graph.connect g (Topo.Graph.Switch s) (Topo.Graph.Host h))
    end
  done;
  let in_b, cut = find_separator g in
  let switches_b = Array.fold_left (fun a b -> if b then a + 1 else a) 0 in_b in
  let switches_a = n - switches_b in
  let obs_on = obs.Obs.Sink.enabled in
  let c_cells_lost = Obs.Sink.counter obs "partition.cells_lost" in
  let g_preserved = Obs.Sink.gauge obs "partition.intra_preserved" in

  (* ---- Control plane: ONE protocol run spanning split and heal, so
     epochs persist across the cut and the heal exercises tag
     reconciliation against a side that reconfigured without us. ---- *)
  let endpoints side_filter =
    List.sort_uniq compare
      (List.concat_map
         (fun lid ->
           let l = Topo.Graph.link g lid in
           List.filter_map
             (function
               | Topo.Graph.Switch s when side_filter s -> Some s
               | _ -> None)
             [ l.Topo.Graph.a.node; l.Topo.Graph.b.node ])
         cut)
  in
  let split_detect = p.split_at + p.detection_delay in
  let heal_detect = p.heal_at + p.detection_delay in
  let split_triggers = List.map (fun s -> (split_detect, s)) (endpoints (fun _ -> true)) in
  let heal_triggers =
    let side = if p.one_sided_heal then fun s -> not in_b.(s) else fun _ -> true in
    List.map (fun s -> (heal_detect, s)) (endpoints side)
  in
  (* Extra B-side rounds while split: each initiate bumps B's epoch
     past anything A ever saw. *)
  let b_members =
    List.filter (fun s -> in_b.(s)) (List.init n (fun s -> s)) |> Array.of_list
  in
  let extra_triggers =
    let window = max 1 (p.heal_at - split_detect) in
    let gap = max (Netsim.Time.ms 5) (window / (p.extra_reconfigs + 2)) in
    List.init p.extra_reconfigs (fun k ->
        ( split_detect + ((k + 1) * gap),
          b_members.(k mod Array.length b_members) ))
  in
  let events =
    List.map (fun lid -> (p.split_at, `Fail_link lid)) cut
    @ List.map (fun lid -> (p.heal_at, `Restore_link lid)) cut
  in
  let protocol = Reconfig.Runner.default_params in
  let horizon = heal_detect + protocol.horizon in
  let outcome =
    Reconfig.Runner.run
      ~params:{ protocol with horizon; seed = protocol.seed + p.seed }
      ~obs ~events ~partitions:p.partitions ~domains:p.domains g
      ~triggers:(split_triggers @ extra_triggers @ heal_triggers)
  in
  (* Evaluate the split phase from the completion log: on each side,
     every member must have completed the side's final tag, with the
     topology of its own (cut) component. *)
  let in_window (_, _, at, _) = at > p.split_at && at < p.heal_at in
  let window = List.filter in_window outcome.Reconfig.Runner.completions in
  let side_eval want_b =
    let members = List.filter (fun s -> in_b.(s) = want_b) (List.init n (fun s -> s)) in
    let last_of s =
      List.fold_left
        (fun acc (s', tag, at, ok) -> if s' = s then Some (tag, at, ok) else acc)
        None window
    in
    let per = List.map last_of members in
    let tag =
      List.fold_left
        (fun acc x -> match x with Some (t, _, _) -> tag_max acc t | None -> acc)
        Reconfig.Tag.zero per
    in
    let converged =
      per <> []
      && List.for_all
           (function
             | Some (t, _, ok) -> ok && Reconfig.Tag.equal t tag
             | None -> false)
           per
    in
    (converged, tag)
  in
  let converged_a, tag_a = side_eval false in
  let converged_b, tag_b = side_eval true in
  let split_converged = converged_a && converged_b in
  let divergent = not (Reconfig.Tag.equal tag_a tag_b) in
  (* When every switch finished its side's first round: the earliest
     moment broken circuits can be rerouted onto the new topology. *)
  let t_reroute =
    let first_of s =
      List.fold_left
        (fun acc (s', _, at, _) ->
          if s' = s then Some (match acc with Some a -> min a at | None -> at)
          else acc)
        None window
    in
    List.fold_left
      (fun acc s ->
        match first_of s with Some at -> max acc at | None -> p.heal_at)
      0 (List.init n (fun s -> s))
  in
  let t_reroute = min t_reroute p.heal_at in
  let heal_tag = outcome.Reconfig.Runner.final_tag in
  let heal_converged = outcome.Reconfig.Runner.converged in
  let heal_elapsed =
    if not heal_converged then 0
    else
      List.fold_left
        (fun acc (_, tag, at, _) ->
          if Reconfig.Tag.equal tag heal_tag then max acc (at - p.heal_at) else acc)
        0 outcome.Reconfig.Runner.completions
  in
  let heal_reconciled =
    Reconfig.Tag.compare heal_tag (tag_max tag_a tag_b) > 0
  in

  (* ---- Circuit plane: replay the same timeline on a fresh engine
     with the convergence instants the control run just gave us. ---- *)
  let engine = Netsim.Engine.create ~obs () in
  let net = An2.Network.create g in
  let lc =
    An2.Lifecycle.create ~obs ~engine net
      { p.lifecycle with An2.Lifecycle.seed = p.lifecycle.An2.Lifecycle.seed + p.seed }
  in
  let rng = Netsim.Rng.create (p.seed + 31) in
  let hosts = Topo.Graph.host_count g in
  let attachment h =
    match An2.Network.host_attachment net h with Ok (s, _) -> s | Error e -> failwith e
  in
  let circuits = ref [] in
  let draws = ref 0 in
  while List.length !circuits < p.circuits && !draws < p.circuits * 50 do
    incr draws;
    let src = Netsim.Rng.int rng hosts in
    let dst = Netsim.Rng.int rng hosts in
    if src <> dst && attachment src <> attachment dst then
      match An2.Network.setup_best_effort net ~src_host:src ~dst_host:dst with
      | Ok vc ->
        circuits := { vc; since = None; lost = 0.0; went_dark = false } :: !circuits
      | Error _ -> ()
  done;
  let circuits = List.rev !circuits in
  let broken c =
    c.vc.An2.Network.paged_out
    || c.vc.An2.Network.links = []
    || List.exists
         (fun l -> not (Topo.Graph.link_working g l))
         c.vc.An2.Network.links
  in
  let close_window c now =
    match c.since with
    | Some t0 ->
      let lost = Churn.circuit_rate *. Netsim.Time.to_s (now - t0) in
      c.lost <- c.lost +. lost;
      c.since <- None;
      if obs_on then begin
        Obs.Metrics.Counter.add c_cells_lost (int_of_float lost);
        Obs.Sink.span obs ~name:"outage" ~cat:"partition" ~ts:t0 ~dur:(now - t0)
          ~tid:c.vc.An2.Network.src_host ~v:c.vc.An2.Network.vc_id
      end
    | None -> ()
  in
  let check_circuits now =
    List.iter
      (fun c ->
        match (broken c, c.since) with
        | true, None -> c.since <- Some now
        | false, Some _ -> close_window c now
        | _ -> ())
      circuits
  in
  let split_gc_reclaimed = ref 0 in
  let leaks_after_split_gc = ref 0 in
  let readmitted = ref 0 in
  let readmit_failed = ref 0 in
  let readmit_elapsed = ref 0 in
  let gc_late = ref 0 in
  Netsim.Engine.post_at engine ~at:p.split_at (fun () ->
      List.iter (Topo.Graph.fail_link g) cut;
      check_circuits p.split_at);
  Netsim.Engine.post_at engine ~at:t_reroute (fun () ->
      (* Each side's reconfiguration has settled: reroute what can be
         rerouted inside its component; what cannot goes dark and its
         entries are swept. *)
      let now = Netsim.Engine.now engine in
      List.iter
        (fun c ->
          if broken c then
            match An2.Network.reroute net c.vc with
            | Ok () -> close_window c now
            | Error _ -> ())
        circuits;
      split_gc_reclaimed := An2.Lifecycle.gc lc;
      leaks_after_split_gc := An2.Lifecycle.audit lc;
      List.iter
        (fun c -> if c.vc.An2.Network.paged_out then c.went_dark <- true)
        circuits);
  Netsim.Engine.post_at engine ~at:p.heal_at (fun () ->
      List.iter (Topo.Graph.restore_link g) cut);
  let t_readmit =
    if heal_converged then p.heal_at + heal_elapsed
    else heal_detect + Reconfig.Runner.default_params.horizon
  in
  Netsim.Engine.post_at engine ~at:t_readmit (fun () ->
      (* The healed topology has been distributed: switches sweep
         again, then dark circuits come back through paced setups. *)
      gc_late := An2.Lifecycle.gc lc;
      let dark = An2.Lifecycle.dark lc in
      let started = Netsim.Engine.now engine in
      An2.Lifecycle.readmit lc dark
        ~on_circuit:(fun r ->
          let now = Netsim.Engine.now engine in
          match r with
          | Ok vc ->
            incr readmitted;
            List.iter
              (fun c -> if c.vc.An2.Network.vc_id = vc.An2.Network.vc_id then close_window c now)
              circuits
          | Error _ -> incr readmit_failed)
        ~on_done:(fun () ->
          readmit_elapsed := Netsim.Engine.now engine - started));
  Netsim.Engine.run engine;
  let final = Netsim.Engine.now engine in
  (* Anything still out at the end keeps losing until the curtain. *)
  List.iter (fun c -> close_window c final) circuits;
  let stats = An2.Lifecycle.stats lc in
  let leaks_final = An2.Lifecycle.audit lc in
  let cross = List.filter (fun c -> c.went_dark) circuits in
  let intra = List.filter (fun c -> not c.went_dark) circuits in
  let sum f l = List.fold_left (fun a c -> a +. f c) 0.0 l in
  let cells_lost_intra = sum (fun c -> c.lost) intra in
  let cells_lost_cross = sum (fun c -> c.lost) cross in
  let intra_preserved =
    let offered =
      float_of_int (List.length intra)
      *. Churn.circuit_rate
      *. Netsim.Time.to_s (p.heal_at - p.split_at)
    in
    if offered <= 0.0 then 1.0 else 1.0 -. (cells_lost_intra /. offered)
  in
  if obs_on then Obs.Metrics.Gauge.set g_preserved intra_preserved;
  let all_served_at_end =
    circuits <> []
    && List.for_all (fun c -> (not (broken c)) && c.since = None) circuits
  in
  {
    switches_a;
    switches_b;
    cut_links = List.length cut;
    split_converged;
    tag_a;
    tag_b;
    divergent;
    intra_circuits = List.length intra;
    cross_circuits = List.length cross;
    cells_lost_intra;
    cells_lost_cross;
    intra_preserved;
    split_gc_reclaimed = !split_gc_reclaimed;
    leaks_after_split_gc = !leaks_after_split_gc;
    heal_converged;
    heal_agreement = outcome.Reconfig.Runner.agreement;
    heal_topology_correct = outcome.Reconfig.Runner.topology_correct;
    heal_tag;
    heal_reconciled;
    heal_elapsed;
    messages = outcome.Reconfig.Runner.messages;
    readmitted = !readmitted;
    readmit_failed = !readmit_failed;
    readmit_elapsed = !readmit_elapsed;
    worst_signaling_backlog = stats.An2.Lifecycle.worst_backlog;
    setup_attempts = stats.An2.Lifecycle.attempts;
    crankbacks = stats.An2.Lifecycle.crankbacks;
    timeouts = stats.An2.Lifecycle.timeouts;
    retries = stats.An2.Lifecycle.retries;
    gc_reclaimed_total = stats.An2.Lifecycle.gc_reclaimed;
    leaks_final;
    all_served_at_end;
    drained = An2.Lifecycle.in_flight lc = 0;
  }
