(* an2sim: a command-line front end to the AN2 simulators.

   Subcommands mirror the library's experiment surfaces:
     an2sim topo      --kind ring --switches 12     # inspect a topology
     an2sim fabric    --scheduler pim3 --load 0.9   # one-switch run
     an2sim reconfig  --kind src-lan --fail-switch 4
     an2sim flow      --credits 16 --hops 3
     an2sim deadlock  --buffering shared --routing shortest
     an2sim e2e       --hops 3 --cbr 8 --be         # end-to-end run *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared arguments *)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* Observability: every subcommand accepts --trace and --metrics.
   Passing either enables the sink; layers that take an Obs.Sink.t get
   deep per-event instrumentation, the rest record their headline
   numbers as instruments after the run. *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON trace to $(docv) (load in \
           chrome://tracing or https://ui.perfetto.dev).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write counters, gauges and histograms as JSON to $(docv).")

let make_sink ~trace ~metrics =
  if trace <> None || metrics <> None then Obs.Sink.create () else Obs.Sink.null

(* [ts_scale] converts the layer's trace timestamps to microseconds:
   1e-3 for engine-driven simulations (nanosecond clocks), 1.0 for
   slotted ones (slot numbers rendered as microseconds). *)
let finish_obs ?(ts_scale = 1e-3) obs ~trace ~metrics =
  (match trace with
   | Some file -> Obs.Trace.write_chrome ~ts_scale file (Obs.Sink.trace obs)
   | None -> ());
  (match metrics with
   | Some file -> Obs.Metrics.write_json file (Obs.Sink.metrics obs)
   | None -> ())

(* Multi-seed sweeps: --sweep N fans seeds seed..seed+N-1 across
   domains via Netsim.Sweep (--jobs caps the domain count). Each job
   gets its own enabled sink; the merged registry serves --metrics.
   Trace rings are per-seed and are not merged, so --trace is ignored
   under --sweep. *)

let sweep_arg =
  Arg.(
    value
    & opt int 0
    & info [ "sweep" ] ~docv:"N"
        ~doc:
          "Run $(docv) seeds (seed, seed+1, ...) across domains and report \
           per-seed results plus aggregates. 0 disables.")

(* Parallelism knobs must be explicit and sane: a zero or negative
   count is a user error, not something to clamp silently. *)
let positive_int what =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= 1 -> Ok v
    | Some v -> Error (`Msg (Printf.sprintf "%s must be >= 1 (got %d)" what v))
    | None -> Error (`Msg (Printf.sprintf "%s expects an integer" what))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(
    value
    & opt (some (positive_int "--jobs")) None
    & info [ "jobs" ] ~docv:"J"
        ~doc:"Domains to use for $(b,--sweep) (>= 1; default: all cores).")

(* Intra-run parallelism: split the switches of ONE run into
   --partitions engine partitions (Netsim.Cluster) and drive them with
   --par-domains worker domains. For a fixed partition count the
   output is byte-identical at every --par-domains value. *)
let partitions_arg =
  Arg.(
    value
    & opt (positive_int "--partitions") 1
    & info [ "partitions" ] ~docv:"P"
        ~doc:
          "Engine partitions for intra-run parallel simulation (>= 1; 1 = \
           one engine, same run path). Fixed $(docv) gives identical output \
           at every $(b,--par-domains) value.")

let par_domains_arg =
  Arg.(
    value
    & opt (positive_int "--par-domains") 1
    & info [ "par-domains" ] ~docv:"D"
        ~doc:
          "Worker domains driving the engine partitions of one run (>= 1; \
           capped at $(b,--partitions)). Does not affect output.")

(* Flight recorder: --heartbeat FILE appends a snapshot of the merged
   metrics registry every --heartbeat-ms of simulated time and writes
   the JSONL after the run. Asking for heartbeats enables the sink
   even without --trace/--metrics. *)
let heartbeat_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "heartbeat" ] ~docv:"FILE"
        ~doc:
          "Record a flight-recorder snapshot of the metrics registry every \
           $(b,--heartbeat-ms) of simulated time and write the JSONL to \
           $(docv).")

let heartbeat_ms_arg =
  Arg.(
    value
    & opt (positive_int "--heartbeat-ms") 10
    & info [ "heartbeat-ms" ] ~docv:"N"
        ~doc:"Simulated milliseconds between flight-recorder snapshots.")

let make_heartbeat ~heartbeat ~heartbeat_ms =
  match heartbeat with
  | None -> None
  | Some file -> Some (file, (Netsim.Time.ms heartbeat_ms, Obs.Flight.create ()))

let finish_heartbeat = function
  | None -> ()
  | Some (file, (_, flight)) -> Obs.Flight.write file flight

let sweep_metrics ~jobs ~seeds ~trace ~metrics job =
  if trace <> None then
    prerr_endline
      "an2sim: --trace is ignored with --sweep (per-seed traces are not \
       merged)";
  let domains =
    match jobs with
    | Some j -> j
    | None -> Netsim.Sweep.domains_available ()
  in
  let results, merged = Netsim.Sweep.map_obs ~domains ~seeds job in
  (match metrics with
   | Some file -> Obs.Metrics.write_json file merged
   | None -> ());
  results

let mean_over outs f =
  List.fold_left (fun a o -> a +. f o) 0.0 outs
  /. float_of_int (max 1 (List.length outs))

let make_topology_flat kind switches =
  match kind with
  | "linear" -> Topo.Build.linear switches
  | "ring" -> Topo.Build.ring switches
  | "star" -> Topo.Build.star switches
  | "grid" ->
    let side = max 2 (int_of_float (sqrt (float_of_int switches))) in
    Topo.Build.grid side side
  | "torus" ->
    let side = max 3 (int_of_float (sqrt (float_of_int switches))) in
    Topo.Build.torus side side
  | "src-lan" -> Topo.Build.src_lan ()
  | "hypercube" ->
    let d = max 1 (int_of_float (Float.round (log (float_of_int switches) /. log 2.0))) in
    Topo.Build.hypercube d
  | "leaf-spine" -> Topo.Build.leaf_spine ~spines:2 ~leaves:(max 1 (switches - 2))
  | "random" ->
    let rng = Netsim.Rng.create 7 in
    Topo.Build.random_connected ~rng ~switches ~extra_links:(switches / 2)
  | other -> Fmt.failwith "unknown topology kind %S" other

(* "fat-tree:K" and "clos:RADIX:TIERS" carry their size in the kind
   string, so --switches is ignored for them. These return pod
   metadata; the flat kinds have none. *)
let make_topology_pods kind switches =
  let arity name s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> Fmt.failwith "bad %s parameter %S (want an integer)" name s
  in
  match String.split_on_char ':' kind with
  | [ "fat-tree" ] ->
    let g, pods = Topo.Build.fat_tree ~k:8 in
    (g, Some pods)
  | [ "fat-tree"; k ] ->
    let g, pods = Topo.Build.fat_tree ~k:(arity "fat-tree" k) in
    (g, Some pods)
  | [ "clos"; r ] ->
    let g, pods = Topo.Build.folded_clos ~radix:(arity "clos" r) ~tiers:3 in
    (g, Some pods)
  | [ "clos"; r; t ] ->
    let g, pods =
      Topo.Build.folded_clos ~radix:(arity "clos" r) ~tiers:(arity "clos" t)
    in
    (g, Some pods)
  | _ -> (make_topology_flat kind switches, None)

let make_topology kind switches = fst (make_topology_pods kind switches)

let kind_arg =
  let doc =
    "Topology: linear, ring, star, grid, torus, hypercube, leaf-spine, \
     src-lan, random, fat-tree:K (k-ary fat-tree with dual-homed hosts), \
     clos:RADIX[:TIERS] (folded Clos; TIERS is 2 or 3). The sized kinds \
     ignore $(b,--switches)."
  in
  Arg.(value & opt string "src-lan" & info [ "kind"; "topo" ] ~docv:"KIND" ~doc)

let switches_arg =
  Arg.(value & opt int 10 & info [ "switches" ] ~docv:"N" ~doc:"Switch count.")

(* ------------------------------------------------------------------ *)
(* topo *)

let topo_cmd =
  let dot_arg = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead.") in
  let run kind switches dot trace metrics =
    let obs = make_sink ~trace ~metrics in
    let g, pods = make_topology_pods kind switches in
    if dot then print_string (Topo.Graph.to_dot g)
    else begin
    Format.printf "%a@." Topo.Graph.pp g;
    (match pods with
     | None -> ()
     | Some p ->
       let pod_size =
         if Topo.Pods.n_pods p = 0 then 0
         else List.length (Topo.Pods.members p 0)
       in
       Format.printf "pods=%d pod-size=%d core-switches=%d@."
         (Topo.Pods.n_pods p) pod_size
         (List.length (Topo.Pods.core p));
       if Topo.Graph.switch_count g <= 96 then
         Format.printf "%a@." Topo.Pods.pp p);
    let tree = Topo.Spanning.bfs g ~root:0 in
    let orientation = Topo.Updown.orient g tree in
    Format.printf
      "diameter=%d mean-distance=%.2f spanning-height=%d up*/down* stretch=%.3f@."
      (Topo.Paths.diameter g) (Topo.Paths.mean_distance g)
      (Topo.Spanning.height tree)
      (Topo.Updown.mean_stretch g orientation);
    Format.printf "wait-for dependencies acyclic under up*/down*: %b@."
      (Topo.Updown.dependency_acyclic g ~restricted:(Some orientation));
    if Obs.Sink.enabled obs then begin
      Obs.Metrics.Gauge.set (Obs.Sink.gauge obs "topo.diameter")
        (float_of_int (Topo.Paths.diameter g));
      Obs.Metrics.Gauge.set (Obs.Sink.gauge obs "topo.mean_distance")
        (Topo.Paths.mean_distance g);
      Obs.Metrics.Gauge.set (Obs.Sink.gauge obs "topo.spanning_height")
        (float_of_int (Topo.Spanning.height tree));
      Obs.Metrics.Counter.set (Obs.Sink.counter obs "topo.switches")
        (Topo.Graph.switch_count g);
      Obs.Sink.instant obs ~name:"topo" ~cat:"an2sim" ~ts:0 ~tid:0
        ~v:(Topo.Graph.switch_count g)
    end
    end;
    finish_obs obs ~trace ~metrics
  in
  let doc = "Build a topology and report its routing properties." in
  Cmd.v (Cmd.info "topo" ~doc)
    Term.(const run $ kind_arg $ switches_arg $ dot_arg $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* fabric *)

let fabric_cmd =
  let scheduler_arg =
    let doc = "Scheduler: fifo, pim1, pim3, islip3, greedy, maximum, oq." in
    Arg.(value & opt string "pim3" & info [ "scheduler" ] ~docv:"S" ~doc)
  in
  let load_arg =
    Arg.(value & opt float 0.9 & info [ "load" ] ~docv:"L" ~doc:"Offered load.")
  in
  let slots_arg =
    Arg.(value & opt int 20_000 & info [ "slots" ] ~docv:"SLOTS" ~doc:"Slots.")
  in
  let pattern_arg =
    let doc = "Arrival pattern: uniform, bursty, hotspot, permutation." in
    Arg.(value & opt string "uniform" & info [ "pattern" ] ~docv:"P" ~doc)
  in
  let run scheduler load slots pattern seed trace metrics =
    let n = 16 in
    let obs = make_sink ~trace ~metrics in
    let rng = Netsim.Rng.create seed in
    let noop = (fun _ ~slot:_ -> ()) in
    let voq scheduler =
      Fabric.Voq_switch.create_observed ~obs ~rng ~n ~scheduler ~on_transfer:noop
    in
    let model =
      match scheduler with
      | "fifo" -> Fabric.Fifo_switch.create ~rng ~n
      | "pim1" -> voq (Pim 1)
      | "pim3" -> voq (Pim 3)
      | "islip3" -> voq (Islip 3)
      | "greedy" -> voq Greedy_random
      | "maximum" -> voq Maximum
      | "oq" -> Fabric.Output_queued.create ~rng ~n ~k:n
      | other -> Fmt.failwith "unknown scheduler %S" other
    in
    let traffic =
      match pattern with
      | "uniform" -> Fabric.Traffic.uniform ~rng ~n ~load
      | "bursty" -> Fabric.Traffic.bursty ~rng ~n ~load ~mean_burst:16.0
      | "hotspot" -> Fabric.Traffic.hotspot ~rng ~n ~load ~hot_fraction:0.2
      | "permutation" -> Fabric.Traffic.permutation ~rng ~n ~load
      | other -> Fmt.failwith "unknown pattern %S" other
    in
    let m = Fabric.Harness.run ~obs ~traffic ~model ~slots () in
    Format.printf "%a@." (fun fmt () -> Fabric.Harness.pp_metrics fmt m) ();
    (* Slot-numbered timestamps: render one slot as one microsecond. *)
    finish_obs ~ts_scale:1.0 obs ~trace ~metrics
  in
  let doc = "Simulate one 16x16 switch under a traffic pattern." in
  Cmd.v (Cmd.info "fabric" ~doc)
    Term.(
      const run $ scheduler_arg $ load_arg $ slots_arg $ pattern_arg $ seed_arg
      $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* reconfig *)

let reconfig_cmd =
  let fail_switch_arg =
    Arg.(value & opt (some int) None
         & info [ "fail-switch" ] ~docv:"S" ~doc:"Switch to kill.")
  in
  let fail_link_arg =
    Arg.(value & opt (some int) None
         & info [ "fail-link" ] ~docv:"L" ~doc:"Link to kill.")
  in
  let loss_arg =
    Arg.(
      value
      & opt float 0.0
      & info [ "control-loss" ] ~docv:"P"
          ~doc:
            "Control-cell drop probability (the reliable layer retransmits, \
             so the protocol still converges).")
  in
  let run kind switches fail_switch fail_link loss partitions par_domains
      sweep jobs seed trace metrics heartbeat heartbeat_ms =
    let once ~obs ?heartbeat seed =
      let g = make_topology kind switches in
      let params =
        { Reconfig.Runner.default_params with control_loss = loss; seed }
      in
      match (fail_switch, fail_link) with
      | Some s, _ ->
        Reconfig.Runner.run_after_failure ~params ~obs ?heartbeat ~partitions
          ~domains:par_domains g ~fail:(`Switch s)
      | None, Some l ->
        Reconfig.Runner.run_after_failure ~params ~obs ?heartbeat ~partitions
          ~domains:par_domains g ~fail:(`Link l)
      | None, None ->
        Reconfig.Runner.run ~params ~obs ?heartbeat ~partitions
          ~domains:par_domains g ~triggers:[ (0, 0) ]
    in
    if sweep > 0 then begin
      if heartbeat <> None then
        prerr_endline
          "an2sim: --heartbeat is ignored with --sweep (one recorder per run)";
      let seeds = List.init sweep (fun i -> seed + i) in
      let results =
        sweep_metrics ~jobs ~seeds ~trace ~metrics (fun s sink ->
            once ~obs:sink s)
      in
      List.iter
        (fun (s, (o : Reconfig.Runner.outcome)) ->
          Format.printf "seed %d: converged=%b elapsed=%a messages=%d wire=%d@."
            s o.converged Netsim.Time.pp o.elapsed o.messages
            o.wire_transmissions)
        results;
      let outs = List.map snd results in
      let converged =
        List.length (List.filter (fun o -> o.Reconfig.Runner.converged) outs)
      in
      Format.printf
        "sweep of %d seeds: converged %d/%d, mean elapsed %.2f ms, mean \
         messages %.0f, mean wire %.0f@."
        sweep converged (List.length outs)
        (mean_over outs (fun o ->
             float_of_int o.Reconfig.Runner.elapsed /. 1e6))
        (mean_over outs (fun o -> float_of_int o.Reconfig.Runner.messages))
        (mean_over outs (fun o ->
             float_of_int o.Reconfig.Runner.wire_transmissions))
    end
    else begin
      let obs =
        if heartbeat <> None then Obs.Sink.create ()
        else make_sink ~trace ~metrics
      in
      let hb = make_heartbeat ~heartbeat ~heartbeat_ms in
      let outcome = once ~obs ?heartbeat:(Option.map snd hb) seed in
      Format.printf
        "converged=%b elapsed=%a messages=%d agreement=%b topology-correct=%b@."
        outcome.converged Netsim.Time.pp outcome.elapsed outcome.messages
        outcome.agreement outcome.topology_correct;
      Format.printf "winning tag=%a propagation-tree depth=%d (BFS %d)@."
        Reconfig.Tag.pp outcome.final_tag outcome.tree_depth outcome.bfs_depth;
      finish_obs obs ~trace ~metrics;
      finish_heartbeat hb
    end
  in
  let doc = "Run the distributed reconfiguration protocol." in
  Cmd.v (Cmd.info "reconfig" ~doc)
    Term.(
      const run $ kind_arg $ switches_arg $ fail_switch_arg $ fail_link_arg
      $ loss_arg $ partitions_arg $ par_domains_arg $ sweep_arg $ jobs_arg
      $ seed_arg $ trace_arg $ metrics_arg $ heartbeat_arg $ heartbeat_ms_arg)

(* ------------------------------------------------------------------ *)
(* flow *)

let flow_cmd =
  let credits_arg =
    Arg.(value & opt int 34 & info [ "credits" ] ~docv:"C" ~doc:"Credits per VC.")
  in
  let hops_arg =
    Arg.(value & opt int 3 & info [ "hops" ] ~docv:"H" ~doc:"Links on the path.")
  in
  let loss_arg =
    Arg.(value & opt float 0.0
         & info [ "credit-loss" ] ~docv:"P" ~doc:"Credit-message drop prob.")
  in
  let resync_arg =
    Arg.(value & flag & info [ "resync" ] ~doc:"Enable periodic resync.")
  in
  let run credits hops loss resync sweep jobs seed trace metrics =
    let params seed =
      { Flow.Chain.default_params with
        credits; hops; credit_loss_prob = loss; seed;
        resync_interval = (if resync then Some (Netsim.Time.ms 1) else None) }
    in
    if sweep > 0 then begin
      let seeds = List.init sweep (fun i -> seed + i) in
      let results =
        sweep_metrics ~jobs ~seeds ~trace ~metrics (fun s sink ->
            Flow.Chain.run ~obs:sink (params s))
      in
      List.iter
        (fun (s, (r : Flow.Chain.result)) ->
          Format.printf
            "seed %d: throughput=%.3f mean-latency=%.1fus p99=%.1fus \
             max-occupancy=%d overflow=%b@."
            s r.throughput r.mean_latency r.p99_latency r.max_occupancy
            r.overflowed)
        results;
      let rs = List.map snd results in
      let tps = List.map (fun (r : Flow.Chain.result) -> r.throughput) rs in
      Format.printf
        "sweep of %d seeds: throughput mean %.3f (min %.3f, max %.3f), mean \
         p99 %.1fus@."
        sweep
        (mean_over rs (fun (r : Flow.Chain.result) -> r.throughput))
        (List.fold_left min infinity tps)
        (List.fold_left max neg_infinity tps)
        (mean_over rs (fun (r : Flow.Chain.result) -> r.p99_latency))
    end
    else begin
      let obs = make_sink ~trace ~metrics in
      let p = params seed in
      let r = Flow.Chain.run ~obs p in
      Format.printf
        "rtt-credits-needed=%d throughput=%.3f mean-latency=%.1fus p99=%.1fus \
         max-occupancy=%d overflow=%b@."
        (Flow.Chain.round_trip_credits p)
        r.throughput r.mean_latency r.p99_latency r.max_occupancy r.overflowed;
      Format.printf "windows:";
      Array.iter (fun w -> Format.printf " %.2f" w) r.window_throughput;
      Format.printf "@.";
      finish_obs obs ~trace ~metrics
    end
  in
  let doc = "Credit flow control along a chain of switches." in
  Cmd.v (Cmd.info "flow" ~doc)
    Term.(
      const run $ credits_arg $ hops_arg $ loss_arg $ resync_arg $ sweep_arg
      $ jobs_arg $ seed_arg $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* deadlock *)

let deadlock_cmd =
  let buffering_arg =
    let doc = "Buffering: shared or per-vc." in
    Arg.(value & opt string "shared" & info [ "buffering" ] ~docv:"B" ~doc)
  in
  let routing_arg =
    let doc = "Routing: shortest or updown." in
    Arg.(value & opt string "shortest" & info [ "routing" ] ~docv:"R" ~doc)
  in
  let run kind switches buffering routing seed trace metrics =
    let obs = make_sink ~trace ~metrics in
    let g = make_topology kind switches in
    let buffering =
      match buffering with
      | "shared" -> Flow.Deadlock.Shared_fifo 2
      | "per-vc" -> Flow.Deadlock.Per_vc 2
      | other -> Fmt.failwith "unknown buffering %S" other
    in
    let routing =
      match routing with
      | "shortest" -> Flow.Deadlock.Shortest
      | "updown" -> Flow.Deadlock.Updown
      | other -> Fmt.failwith "unknown routing %S" other
    in
    let r =
      Flow.Deadlock.run ~obs g
        { Flow.Deadlock.default_params with
          buffering; routing; seed;
          circuits = Topo.Graph.switch_count g }
    in
    Format.printf "deadlocked=%b%s delivered=%d stranded=%d@." r.deadlocked
      (match r.deadlock_slot with
       | Some s -> Printf.sprintf " (at slot %d)" s
       | None -> "")
      r.delivered r.stranded;
    finish_obs ~ts_scale:1.0 obs ~trace ~metrics
  in
  let doc = "Probe buffer-wait deadlock under a buffering/routing discipline." in
  Cmd.v (Cmd.info "deadlock" ~doc)
    Term.(
      const run $ kind_arg $ switches_arg $ buffering_arg $ routing_arg
      $ seed_arg $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* e2e *)

let e2e_cmd =
  let hops_arg =
    Arg.(value & opt int 3 & info [ "hops" ] ~docv:"H" ~doc:"Chain length.")
  in
  let e2e_topo_arg =
    let doc =
      "Topology to run over (default a $(b,--hops)-switch chain). Any \
       $(b,topo) kind works, e.g. fat-tree:8; kinds that already carry \
       hosts route between the first and last host (on a fat-tree these \
       sit in different pods), others get a host pair at the ends."
    in
    Arg.(value & opt string "linear" & info [ "topo"; "kind" ] ~docv:"KIND" ~doc)
  in
  let cbr_arg =
    Arg.(value & opt int 8
         & info [ "cbr" ] ~docv:"CELLS" ~doc:"Guaranteed cells/frame (0 = none).")
  in
  let be_arg = Arg.(value & flag & info [ "be" ] ~doc:"Add a greedy BE circuit.") in
  let packets_arg =
    Arg.(value & opt int 0
         & info [ "packets" ] ~docv:"BYTES"
             ~doc:"Add a packet source of this byte size (0 = none).")
  in
  let ms_arg =
    Arg.(value & opt int 10 & info [ "duration-ms" ] ~docv:"MS" ~doc:"Run length.")
  in
  let run topo hops cbr be packets ms partitions par_domains sweep jobs seed
      trace metrics heartbeat heartbeat_ms =
    (* Everything is rebuilt from the seed inside [once] so sweep jobs
       share no state. *)
    let once ~obs ?heartbeat seed =
      let frame = 128 in
      let g =
        if topo = "linear" then Topo.Build.linear hops
        else make_topology topo hops
      in
      let h1, h2 =
        if Topo.Graph.host_count g >= 2 then (0, Topo.Graph.host_count g - 1)
        else Topo.Build.with_host_pair g
      in
      let net = An2.Network.create ~frame g in
      let bwc = An2.Bandwidth_central.create ~obs net in
      let sources = ref [] in
      if cbr > 0 then begin
        match An2.Bandwidth_central.request bwc ~src_host:h1 ~dst_host:h2 ~cells:cbr with
        | Ok vc -> sources := An2.Netrun.Cbr vc :: !sources
        | Error d -> Fmt.failwith "admission denied: %a" An2.Bandwidth_central.pp_denial d
      end;
      if be then begin
        match An2.Network.setup_best_effort net ~src_host:h1 ~dst_host:h2 with
        | Ok vc -> sources := An2.Netrun.Saturated_be vc :: !sources
        | Error e -> failwith e
      end;
      if packets > 0 then begin
        match An2.Network.setup_best_effort net ~src_host:h1 ~dst_host:h2 with
        | Ok vc -> sources := An2.Netrun.Packets_be (vc, 0.5, packets) :: !sources
        | Error e -> failwith e
      end;
      if !sources = [] then
        failwith "nothing to run: pass --cbr, --be and/or --packets";
      let p = { An2.Netrun.default_params with seed } in
      let r =
        An2.Netrun.run ~obs ?heartbeat ~partitions ~domains:par_domains net p
          ~sources:!sources ~duration:(Netsim.Time.ms ms) ()
      in
      if Obs.Sink.enabled obs then begin
        List.iter
          (fun (id, (s : An2.Netrun.vc_stats)) ->
            let pfx = Printf.sprintf "e2e.vc%d." id in
            Obs.Metrics.Counter.set (Obs.Sink.counter obs (pfx ^ "sent")) s.sent;
            Obs.Metrics.Counter.set
              (Obs.Sink.counter obs (pfx ^ "delivered"))
              s.delivered;
            Obs.Metrics.Counter.set
              (Obs.Sink.counter obs (pfx ^ "dropped"))
              s.dropped;
            Obs.Metrics.Gauge.set
              (Obs.Sink.gauge obs (pfx ^ "mean_latency_us"))
              s.mean_latency_us;
            Obs.Sink.instant obs ~name:"vc-done" ~cat:"e2e"
              ~ts:(Netsim.Time.ms ms) ~tid:id ~v:s.delivered)
          r.per_vc;
        Obs.Metrics.Gauge.set
          (Obs.Sink.gauge obs "e2e.max_guaranteed_backlog")
          (float_of_int r.max_guaranteed_backlog)
      end;
      r
    in
    if sweep > 0 then begin
      if heartbeat <> None then
        prerr_endline
          "an2sim: --heartbeat is ignored with --sweep (one recorder per run)";
      let seeds = List.init sweep (fun i -> seed + i) in
      let results =
        sweep_metrics ~jobs ~seeds ~trace ~metrics (fun s sink ->
            once ~obs:sink s)
      in
      List.iter
        (fun (s, (r : An2.Netrun.result)) ->
          let sent, delivered, dropped =
            List.fold_left
              (fun (a, b, c) (_, (v : An2.Netrun.vc_stats)) ->
                (a + v.sent, b + v.delivered, c + v.dropped))
              (0, 0, 0) r.per_vc
          in
          Format.printf
            "seed %d: sent=%d delivered=%d dropped=%d worst-backlog=%d@." s
            sent delivered dropped r.max_guaranteed_backlog)
        results;
      let rs = List.map snd results in
      let worst =
        List.fold_left
          (fun a (r : An2.Netrun.result) -> max a r.max_guaranteed_backlog)
          0 rs
      in
      Format.printf
        "sweep of %d seeds: mean delivered %.0f, worst guaranteed backlog %d \
         cells@."
        sweep
        (mean_over rs (fun (r : An2.Netrun.result) ->
             List.fold_left
               (fun a (_, (v : An2.Netrun.vc_stats)) -> a +. float_of_int v.delivered)
               0.0 r.per_vc))
        worst
    end
    else begin
      let obs =
        if heartbeat <> None then Obs.Sink.create ()
        else make_sink ~trace ~metrics
      in
      let hb = make_heartbeat ~heartbeat ~heartbeat_ms in
      let r = once ~obs ?heartbeat:(Option.map snd hb) seed in
      List.iter
        (fun (id, (s : An2.Netrun.vc_stats)) ->
          Format.printf
            "vc %d: sent=%d delivered=%d dropped=%d latency mean=%.1f p99=%.1f \
             max=%.1f jitter=%.1f (us)@."
            id s.sent s.delivered s.dropped s.mean_latency_us s.p99_latency_us
            s.max_latency_us s.jitter_us;
          if s.packets_sent > 0 then
            Format.printf
              "      packets: %d sent, %d reassembled, mean latency %.1fus@."
              s.packets_sent s.packets_delivered s.packet_mean_latency_us)
        r.per_vc;
      Format.printf "worst guaranteed backlog: %d cells (%.2f frames)@."
        r.max_guaranteed_backlog r.guaranteed_backlog_frames;
      finish_obs obs ~trace ~metrics;
      finish_heartbeat hb
    end
  in
  let doc = "End-to-end run over a chain: guaranteed + best-effort traffic." in
  Cmd.v (Cmd.info "e2e" ~doc)
    Term.(
      const run $ e2e_topo_arg $ hops_arg $ cbr_arg $ be_arg $ packets_arg $ ms_arg
      $ partitions_arg $ par_domains_arg $ sweep_arg $ jobs_arg $ seed_arg
      $ trace_arg $ metrics_arg $ heartbeat_arg $ heartbeat_ms_arg)

(* ------------------------------------------------------------------ *)
(* local-reconfig *)

let local_reconfig_cmd =
  let radius_arg =
    Arg.(value & opt int 2 & info [ "radius" ] ~docv:"R" ~doc:"Hop radius.")
  in
  let fail_link_arg =
    Arg.(value & opt int 3 & info [ "fail-link" ] ~docv:"L" ~doc:"Link to kill.")
  in
  let run kind switches radius fail_link trace metrics =
    let obs = make_sink ~trace ~metrics in
    let g = make_topology kind switches in
    let o = Reconfig.Local.run_after_failure ~radius ~obs g ~fail:fail_link in
    Format.printf
      "converged=%b participants=%d/%d messages=%d elapsed=%a region-correct=%b@."
      o.converged o.participants o.total_switches o.messages Netsim.Time.pp
      o.elapsed o.region_correct;
    finish_obs obs ~trace ~metrics
  in
  let doc = "Scoped (localized) reconfiguration around one failed link." in
  Cmd.v (Cmd.info "local-reconfig" ~doc)
    Term.(
      const run $ kind_arg $ switches_arg $ radius_arg $ fail_link_arg
      $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* multicast *)

let multicast_cmd =
  let group_arg =
    Arg.(value & opt int 4 & info [ "group" ] ~docv:"K" ~doc:"Destination count.")
  in
  let run group trace metrics =
    let obs = make_sink ~trace ~metrics in
    let g = Topo.Build.src_lan () in
    let net = An2.Network.create g in
    let dests = List.init group (fun i -> ((i + 1) * 3) mod 24) in
    (match
       ( An2.Multicast.build net ~source_host:0 ~dest_hosts:dests,
         An2.Multicast.unicast_transmissions net ~source_host:0 ~dest_hosts:dests )
     with
    | Ok mc, Ok unicast ->
      Format.printf "group of %d: tree crosses %d links vs %d for unicasts (%.0f%% saved)@."
        group
        (An2.Multicast.link_transmissions mc)
        unicast
        (100.0
        *. (1.0
            -. float_of_int (An2.Multicast.link_transmissions mc)
               /. float_of_int unicast));
      let d = An2.Multicast.simulate net mc ~rate:0.2 ~duration:(Netsim.Time.ms 2) in
      Format.printf "delivered all: %b; per-destination mean latency:@."
        d.delivered_all;
      List.iter
        (fun (h, l) -> Format.printf "  host %d: %.1fus@." h l)
        d.per_dest_latency_us;
      if Obs.Sink.enabled obs then begin
        Obs.Metrics.Counter.set
          (Obs.Sink.counter obs "multicast.tree_transmissions")
          (An2.Multicast.link_transmissions mc);
        Obs.Metrics.Counter.set
          (Obs.Sink.counter obs "multicast.unicast_transmissions")
          unicast;
        let lat = Obs.Sink.histogram obs "multicast.dest_latency_us" in
        List.iter (fun (_, l) -> Obs.Histogram.add lat l) d.per_dest_latency_us;
        Obs.Sink.instant obs ~name:"multicast" ~cat:"an2sim" ~ts:0 ~tid:0 ~v:group
      end
    | Error e, _ | _, Error e -> failwith e);
    finish_obs obs ~trace ~metrics
  in
  let doc = "Multicast tree economy and delivery on the SRC LAN." in
  Cmd.v (Cmd.info "multicast" ~doc)
    Term.(const run $ group_arg $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* adaptive *)

let adaptive_cmd =
  let circuits_arg =
    Arg.(value & opt int 32 & info [ "circuits" ] ~docv:"V" ~doc:"Circuits.")
  in
  let active_arg =
    Arg.(value & opt int 2 & info [ "active" ] ~docv:"A" ~doc:"Busy circuits.")
  in
  let run circuits active trace metrics =
    let obs = make_sink ~trace ~metrics in
    let base = { Flow.Adaptive.default_params with circuits; active } in
    List.iter
      (fun (name, policy) ->
        let r = Flow.Adaptive.run { base with policy } in
        Format.printf "%-10s aggregate=%.3f overflow=%b reallocations=%d@." name
          r.aggregate_throughput r.overflowed r.reallocations;
        if Obs.Sink.enabled obs then begin
          Obs.Metrics.Gauge.set
            (Obs.Sink.gauge obs ("adaptive." ^ name ^ ".aggregate_throughput"))
            r.aggregate_throughput;
          Obs.Metrics.Counter.set
            (Obs.Sink.counter obs ("adaptive." ^ name ^ ".reallocations"))
            r.reallocations;
          Obs.Sink.instant obs ~name ~cat:"adaptive" ~ts:0 ~tid:0
            ~v:r.reallocations
        end)
      [
        ("static", Flow.Adaptive.Static);
        ( "adaptive",
          Flow.Adaptive.Adaptive { window = Netsim.Time.us 500; floor = 2 } );
      ];
    finish_obs obs ~trace ~metrics
  in
  let doc = "Static vs adaptive per-circuit buffer allocation on one link." in
  Cmd.v (Cmd.info "adaptive" ~doc)
    Term.(const run $ circuits_arg $ active_arg $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* rebalance *)

let rebalance_cmd =
  let circuits_arg =
    Arg.(value & opt int 6 & info [ "circuits" ] ~docv:"K" ~doc:"Circuits.")
  in
  let stretch_arg =
    Arg.(value & opt int 1 & info [ "max-stretch" ] ~docv:"S" ~doc:"Detour bound.")
  in
  let run circuits max_stretch trace metrics =
    let obs = make_sink ~trace ~metrics in
    let g = Topo.Build.torus 4 4 in
    let mk s =
      let h = Topo.Graph.add_host g in
      ignore (Topo.Graph.connect g (Host h) (Switch s));
      h
    in
    let net = An2.Network.create g in
    for _ = 1 to circuits do
      match An2.Network.setup_best_effort net ~src_host:(mk 0) ~dst_host:(mk 5) with
      | Ok _ -> ()
      | Error e -> failwith e
    done;
    let before = An2.Rebalance.load_stats net in
    let moves = An2.Rebalance.rebalance ~max_stretch net in
    let after = An2.Rebalance.load_stats net in
    Format.printf
      "%d identical circuits: hottest link %d -> %d after %d moves (stddev %.2f -> %.2f)@."
      circuits before.max_load after.max_load moves before.stddev after.stddev;
    if Obs.Sink.enabled obs then begin
      Obs.Metrics.Gauge.set
        (Obs.Sink.gauge obs "rebalance.max_load_before")
        (float_of_int before.max_load);
      Obs.Metrics.Gauge.set
        (Obs.Sink.gauge obs "rebalance.max_load_after")
        (float_of_int after.max_load);
      Obs.Metrics.Counter.set (Obs.Sink.counter obs "rebalance.moves") moves;
      Obs.Sink.instant obs ~name:"rebalance" ~cat:"an2sim" ~ts:0 ~tid:0 ~v:moves
    end;
    finish_obs obs ~trace ~metrics
  in
  let doc = "Load-balance a circuit pile-up on a torus." in
  Cmd.v (Cmd.info "rebalance" ~doc)
    Term.(const run $ circuits_arg $ stretch_arg $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* signaling *)

let signaling_cmd =
  let hops_arg =
    Arg.(value & opt int 3 & info [ "hops" ] ~docv:"H" ~doc:"Path length.")
  in
  let run hops trace metrics =
    let obs = make_sink ~trace ~metrics in
    let g = Topo.Build.linear hops in
    let h1, h2 = Topo.Build.with_host_pair g in
    let net = An2.Network.create g in
    (match
       An2.Signaling.setup_with_data net ~src_host:h1 ~dst_host:h2
         An2.Signaling.default_params
     with
    | Error e -> failwith e
    | Ok r ->
      Format.printf
        "setup=%.1fus first-data=%.1fus delivered=%d in-order=%b max-backlog=%d@."
        r.setup_time_us r.first_data_latency_us r.delivered r.in_order
        r.max_buffered_awaiting_entry;
      if Obs.Sink.enabled obs then begin
        Obs.Metrics.Gauge.set
          (Obs.Sink.gauge obs "signaling.setup_time_us")
          r.setup_time_us;
        Obs.Metrics.Gauge.set
          (Obs.Sink.gauge obs "signaling.first_data_latency_us")
          r.first_data_latency_us;
        Obs.Metrics.Counter.set
          (Obs.Sink.counter obs "signaling.delivered")
          r.delivered;
        Obs.Sink.span obs ~name:"setup" ~cat:"signaling" ~ts:0
          ~dur:(int_of_float (r.setup_time_us *. 1000.0))
          ~tid:0 ~v:r.delivered
      end);
    finish_obs obs ~trace ~metrics
  in
  let doc = "Circuit setup with data cells following immediately." in
  Cmd.v (Cmd.info "signaling" ~doc)
    Term.(const run $ hops_arg $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* churn *)

let churn_cmd =
  let fault_rate_arg =
    Arg.(
      value
      & opt float 2.0
      & info [ "fault-rate" ] ~docv:"R"
          ~doc:
            "Random link faults per simulated second (Poisson, seeded). 0 \
             disables random churn.")
  in
  let mttr_arg =
    Arg.(
      value
      & opt int 200
      & info [ "mttr-ms" ] ~docv:"MS"
          ~doc:"Mean time to repair a randomly failed link, in ms.")
  in
  let flap_link_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "flap-link" ] ~docv:"L"
          ~doc:"Flap link $(docv) for the whole run.")
  in
  let flap_period_arg =
    Arg.(
      value
      & opt int 300
      & info [ "flap-period-ms" ] ~docv:"MS"
          ~doc:
            "Full flap cycle length in ms (half down, half up) for \
             $(b,--flap-link).")
  in
  let crash_switch_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-switch" ] ~docv:"S"
          ~doc:
            "Crash switch $(docv) a quarter into the run and restart it \
             $(b,--mttr-ms) x 2 later.")
  in
  let loss_arg =
    Arg.(
      value
      & opt float 0.0
      & info [ "control-loss" ] ~docv:"P"
          ~doc:
            "Control-cell drop probability during the middle half of the \
             run (a timed control-loss window).")
  in
  let duration_arg =
    Arg.(
      value
      & opt int 5000
      & info [ "duration-ms" ] ~docv:"MS" ~doc:"Observation window in ms.")
  in
  let circuits_arg =
    Arg.(
      value
      & opt int 8
      & info [ "circuits" ] ~docv:"K"
          ~doc:"Random switch-to-switch circuits whose lost cells we count.")
  in
  let switch_links g =
    List.filter_map
      (fun l ->
        match (l.Topo.Graph.a.node, l.Topo.Graph.b.node) with
        | Topo.Graph.Switch _, Topo.Graph.Switch _ -> Some l.Topo.Graph.link_id
        | _ -> None)
      (Topo.Graph.links g)
  in
  let run kind switches fault_rate mttr flap_link flap_period crash_switch loss
      duration_ms circuits partitions par_domains sweep jobs seed trace metrics =
    let duration = Netsim.Time.ms duration_ms in
    let once ~obs seed =
      let g = make_topology kind switches in
      let schedule =
        List.concat
          [
            (if fault_rate > 0.0 then
               [
                 Faults.Schedule.Random_churn
                   {
                     seed;
                     start = Netsim.Time.ms 50;
                     until = duration;
                     rate = fault_rate;
                     mean_downtime = Netsim.Time.ms mttr;
                     links = switch_links g;
                   };
               ]
             else []);
            (match flap_link with
             | Some link ->
               let half = Netsim.Time.ms (max 1 (flap_period / 2)) in
               [
                 Faults.Schedule.Flap
                   {
                     link;
                     start = Netsim.Time.ms 100;
                     until = duration;
                     down_for = half;
                     up_for = half;
                   };
               ]
             | None -> []);
            (match crash_switch with
             | Some switch ->
               [
                 Faults.Schedule.Crash_restart
                   {
                     switch;
                     at = duration / 4;
                     down_for = Netsim.Time.ms (2 * mttr);
                   };
               ]
             | None -> []);
            (if loss > 0.0 then
               [
                 Faults.Schedule.Control_loss_window
                   { from_ = duration / 4; until = 3 * duration / 4; loss };
               ]
             else []);
          ]
      in
      Faults.Churn.run ~obs ~graph:g
        {
          Faults.Churn.default_params with
          schedule;
          duration;
          circuits;
          partitions;
          domains = par_domains;
          seed;
        }
    in
    let print_result pre (r : Faults.Churn.result) =
      Format.printf
        "%sfaults=%d transitions=%d reconfigs=%d/%d converged, convergence \
         mean=%.2fms max=%.2fms@."
        pre r.faults_injected r.transitions r.reconfigs_converged r.reconfigs
        r.convergence_mean_ms r.convergence_max_ms;
      Format.printf
        "%scells-lost=%.0f (%.0f/event) max-skeptic=%d flow-checks=%d \
         (mean throughput %.3f, lossless=%b) drained=%b@."
        pre r.cells_lost r.cells_lost_per_event r.max_skeptic_level
        r.flow_checks r.flow_throughput_mean r.flow_lossless r.drained
    in
    if sweep > 0 then begin
      let seeds = List.init sweep (fun i -> seed + i) in
      let results =
        sweep_metrics ~jobs ~seeds ~trace ~metrics (fun s sink ->
            once ~obs:sink s)
      in
      List.iter
        (fun (s, r) ->
          Format.printf "seed %d:@." s;
          print_result "  " r)
        results;
      let outs = List.map snd results in
      Format.printf
        "sweep of %d seeds: mean convergence %.2f ms, mean cells lost %.0f, \
         all drained %b@."
        sweep
        (mean_over outs (fun r -> r.Faults.Churn.convergence_mean_ms))
        (mean_over outs (fun r -> r.Faults.Churn.cells_lost))
        (List.for_all (fun r -> r.Faults.Churn.drained) outs)
    end
    else begin
      let obs = make_sink ~trace ~metrics in
      print_result "" (once ~obs seed);
      finish_obs obs ~trace ~metrics
    end
  in
  let doc =
    "Sustained fault injection and churn: flaps, crashes, control-loss \
     windows and random link faults against live monitors, skeptics, \
     reconfigurations and circuits."
  in
  Cmd.v (Cmd.info "churn" ~doc)
    Term.(
      const run $ kind_arg $ switches_arg $ fault_rate_arg $ mttr_arg
      $ flap_link_arg $ flap_period_arg $ crash_switch_arg $ loss_arg
      $ duration_arg $ circuits_arg $ partitions_arg $ par_domains_arg
      $ sweep_arg $ jobs_arg $ seed_arg $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* partition *)

let partition_cmd =
  let circuits_arg =
    Arg.(
      value
      & opt int 12
      & info [ "circuits" ] ~docv:"K"
          ~doc:"Best-effort circuits over random host pairs.")
  in
  let split_arg =
    Arg.(
      value
      & opt int 100
      & info [ "split-ms" ] ~docv:"MS" ~doc:"When the separator is cut.")
  in
  let heal_arg =
    Arg.(
      value
      & opt int 400
      & info [ "heal-ms" ] ~docv:"MS" ~doc:"When the cut links are restored.")
  in
  let detect_arg =
    Arg.(
      value
      & opt int 1
      & info [ "detect-ms" ] ~docv:"MS"
          ~doc:"Failure/repair detection delay at the adjacent switches.")
  in
  let extra_arg =
    Arg.(
      value
      & opt int 2
      & info [ "extra-reconfigs" ] ~docv:"N"
          ~doc:
            "Additional reconfiguration rounds on the B side while split \
             (drives its epoch past A's).")
  in
  let one_sided_arg =
    Arg.(
      value & flag
      & info [ "one-sided" ]
          ~doc:
            "Only the low-epoch side detects the heal, so convergence \
             requires the stale-invite Reject path.")
  in
  let pace_arg =
    Arg.(
      value
      & opt int 500
      & info [ "pace-us" ] ~docv:"US"
          ~doc:"Gap between re-admissions after the heal (0 = naive storm).")
  in
  let run kind switches circuits split_ms heal_ms detect_ms extra one_sided
      pace_us partitions par_domains sweep jobs seed trace metrics =
    let params base_seed =
      {
        Faults.Partition.default_params with
        circuits;
        split_at = Netsim.Time.ms split_ms;
        heal_at = Netsim.Time.ms heal_ms;
        detection_delay = Netsim.Time.ms detect_ms;
        extra_reconfigs = extra;
        one_sided_heal = one_sided;
        lifecycle =
          { An2.Lifecycle.default_params with pace = Netsim.Time.us pace_us };
        partitions;
        domains = par_domains;
        seed = base_seed;
      }
    in
    let once ~obs seed =
      Faults.Partition.run ~obs ~graph:(make_topology kind switches)
        (params seed)
    in
    let print_result pre (r : Faults.Partition.result) =
      Format.printf
        "%ssplit: %d|%d switches, %d cut links, converged=%b %a vs %a \
         divergent=%b@."
        pre r.switches_a r.switches_b r.cut_links r.split_converged
        Reconfig.Tag.pp r.tag_a Reconfig.Tag.pp r.tag_b r.divergent;
      Format.printf
        "%scircuits: %d intra (preserved %.3f, lost %.0f cells), %d cross \
         (lost %.0f); split gc reclaimed %d, leaks=%d@."
        pre r.intra_circuits r.intra_preserved r.cells_lost_intra
        r.cross_circuits r.cells_lost_cross r.split_gc_reclaimed
        r.leaks_after_split_gc;
      Format.printf
        "%sheal: converged=%b agreement=%b topology=%b tag=%a reconciled=%b \
         in %.2fms (%d msgs)@."
        pre r.heal_converged r.heal_agreement r.heal_topology_correct
        Reconfig.Tag.pp r.heal_tag r.heal_reconciled
        (Netsim.Time.to_ms r.heal_elapsed)
        r.messages;
      Format.printf
        "%sreadmit: %d ok, %d failed in %.2fms; backlog=%d attempts=%d \
         crankbacks=%d timeouts=%d retries=%d gc=%d leaks=%d served=%b \
         drained=%b@."
        pre r.readmitted r.readmit_failed
        (Netsim.Time.to_ms r.readmit_elapsed)
        r.worst_signaling_backlog r.setup_attempts r.crankbacks r.timeouts
        r.retries r.gc_reclaimed_total r.leaks_final r.all_served_at_end
        r.drained
    in
    if sweep > 0 then begin
      let seeds = List.init sweep (fun i -> seed + i) in
      let results =
        sweep_metrics ~jobs ~seeds ~trace ~metrics (fun s sink ->
            once ~obs:sink s)
      in
      List.iter
        (fun (s, r) ->
          Format.printf "seed %d:@." s;
          print_result "  " r)
        results;
      let outs = List.map snd results in
      let all f = List.for_all f outs in
      Format.printf
        "sweep of %d seeds: healed %b, reconciled %b, mean heal %.2fms, \
         mean intra preserved %.3f, zero leaks %b, all drained %b@."
        sweep
        (all (fun r ->
             r.Faults.Partition.heal_converged
             && r.Faults.Partition.heal_agreement
             && r.Faults.Partition.heal_topology_correct))
        (all (fun r -> r.Faults.Partition.heal_reconciled))
        (mean_over outs (fun r ->
             Netsim.Time.to_ms r.Faults.Partition.heal_elapsed))
        (mean_over outs (fun r -> r.Faults.Partition.intra_preserved))
        (all (fun r ->
             r.Faults.Partition.leaks_after_split_gc = 0
             && r.Faults.Partition.leaks_final = 0))
        (all (fun r -> r.Faults.Partition.drained))
    end
    else begin
      let obs = make_sink ~trace ~metrics in
      print_result "" (once ~obs seed);
      finish_obs obs ~trace ~metrics
    end
  in
  let doc =
    "Partition-and-heal survivability: cut a separator, let both sides \
     reconfigure to divergent epochs while intra-side circuits keep \
     serving, then heal, reconcile tags, sweep orphans and re-admit dark \
     circuits with paced setups."
  in
  Cmd.v (Cmd.info "partition" ~doc)
    Term.(
      const run $ kind_arg $ switches_arg $ circuits_arg $ split_arg
      $ heal_arg $ detect_arg $ extra_arg $ one_sided_arg $ pace_arg
      $ partitions_arg $ par_domains_arg $ sweep_arg $ jobs_arg $ seed_arg
      $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* tps: control-plane saturation — offered circuit-setup rate vs the
   signaling/admission backlog, and the knee where it diverges. *)

let tps_cmd =
  let rate_arg =
    Arg.(
      value
      & opt float 0.0
      & info [ "rate" ] ~docv:"R"
          ~doc:
            "Offered circuit-setup rate per simulated second. 0 searches \
             for the knee (highest sustained rate) instead.")
  in
  let duration_arg =
    Arg.(
      value
      & opt (positive_int "--duration-ms") 500
      & info [ "duration-ms" ] ~docv:"MS"
          ~doc:"Offered-load interval in milliseconds; the run then drains.")
  in
  let shards_arg =
    Arg.(
      value
      & opt (positive_int "--shards") 4
      & info [ "shards" ] ~docv:"S"
          ~doc:"Admission shards (contiguous link-id ranges).")
  in
  let no_cache_arg =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Disable the version-keyed legal-path cache.")
  in
  let no_batch_arg =
    Arg.(
      value & flag
      & info [ "no-batch" ]
          ~doc:"Write routing-table entries inline instead of batched.")
  in
  let baseline_arg =
    Arg.(
      value & flag
      & info [ "baseline" ]
          ~doc:
            "Pre-PR control plane under the same cost model: one admission \
             shard, no path cache, unbatched table writes (overrides \
             $(b,--shards), $(b,--no-cache) and $(b,--no-batch)).")
  in
  let run kind switches rate duration_ms shards no_cache no_batch baseline
      sweep jobs seed trace metrics =
    let config =
      if baseline then Faults.Tps.baseline_config
      else begin
        let lifecycle =
          if no_cache then
            { Faults.Tps.tuned_lifecycle with An2.Lifecycle.path_cache = false }
          else Faults.Tps.tuned_lifecycle
        in
        let service =
          if no_batch then
            { An2.Bandwidth_central.Service.default_params with flush_every = 0 }
          else An2.Bandwidth_central.Service.default_params
        in
        { Faults.Tps.improved_config with lifecycle; service; shards }
      end
    in
    let profile s =
      An2.Workload.with_seed
        {
          An2.Workload.default_profile with
          duration = Netsim.Time.ms duration_ms;
        }
        s
    in
    let print_point pre (p : Faults.Tps.point) =
      Format.printf
        "%srate %.0f/s (offered %.0f/s): %d arrivals, %d established, %d \
         failed, %d granted, %d denied@."
        pre p.rate p.offered_rate p.arrivals p.established p.failed p.granted
        p.denied;
      Format.printf
        "%s  setup p50 %.0fus p99 %.0fus max %.0fus; backlog peak %d final \
         %d; diverged=%b drained=%b@."
        pre p.p50_us p.p99_us p.max_us p.peak_backlog p.final_backlog
        p.diverged p.drained;
      Format.printf
        "%s  route cache %d hits / %d misses; cross-shard %d, escrow \
         conflicts %d, flushes %d; %d events@."
        pre p.cache_hits p.cache_misses p.cross_shard p.escrow_conflicts
        p.batch_flushes p.sim_events
    in
    if sweep > 0 then begin
      if rate <= 0.0 then
        Fmt.failwith
          "an2sim tps: --sweep needs an explicit --rate (knee search per \
           seed would be a bench, not a sweep)";
      let seeds = List.init sweep (fun i -> seed + i) in
      let results =
        sweep_metrics ~jobs ~seeds ~trace ~metrics (fun s sink ->
            Faults.Tps.run_point ~obs:sink
              ~graph:(make_topology kind switches)
              config
              (An2.Workload.scale (profile s) ~rate))
      in
      List.iter
        (fun (s, p) ->
          Format.printf "seed %d:@." s;
          print_point "  " p)
        results;
      let outs = List.map snd results in
      Format.printf
        "sweep of %d seeds at %.0f/s: mean established %.1f, mean p99 \
         %.0fus, none diverged %b, all drained %b@."
        sweep rate
        (mean_over outs (fun p -> float_of_int p.Faults.Tps.established))
        (mean_over outs (fun p -> p.Faults.Tps.p99_us))
        (List.for_all (fun p -> not p.Faults.Tps.diverged) outs)
        (List.for_all (fun p -> p.Faults.Tps.drained) outs)
    end
    else begin
      let obs = make_sink ~trace ~metrics in
      (if rate > 0.0 then
         print_point ""
           (Faults.Tps.run_point ~obs
              ~graph:(make_topology kind switches)
              config
              (An2.Workload.scale (profile seed) ~rate))
       else begin
         let knee, points =
           Faults.Tps.find_knee ~obs
             ~mk_graph:(fun () -> make_topology kind switches)
             config (profile seed)
         in
         List.iter (print_point "") points;
         Format.printf "knee: %.0f setups/s sustained@." knee
       end);
      finish_obs obs ~trace ~metrics
    end
  in
  let doc =
    "Control-plane saturation: drive an open-loop workload of circuit \
     setups (Poisson base + diurnal ramp + heavy-tail bursts) through \
     signaling and sharded admission at $(b,--rate), or sweep the rate to \
     the knee where the setup backlog diverges."
  in
  Cmd.v (Cmd.info "tps" ~doc)
    Term.(
      const run $ kind_arg $ switches_arg $ rate_arg $ duration_arg
      $ shards_arg $ no_cache_arg $ no_batch_arg $ baseline_arg $ sweep_arg
      $ jobs_arg $ seed_arg $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* soak *)

let soak_cmd =
  let hours_arg =
    Arg.(
      value
      & opt float 0.0
      & info [ "hours" ] ~docv:"H"
          ~doc:
            "Simulated lifetime in hours (fractions fine). 0 keeps the \
             default 60 s shakeout lifetime.")
  in
  let every_arg =
    Arg.(
      value
      & opt (positive_int "--checkpoint-every") 5000
      & info [ "checkpoint-every" ] ~docv:"MS"
          ~doc:"Simulated milliseconds per checkpoint window.")
  in
  let dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Store a snapshot per window ($(b,ckpt-N.snap), plus \
             $(b,final.snap) at completion) in $(docv); created if missing. \
             Required for $(b,--resume) round-trips and $(b,--bisect).")
  in
  let resume_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Restore every module from this checkpoint and continue; the \
             continuation is byte-identical to the uninterrupted run.")
  in
  let stop_after_arg =
    Arg.(
      value
      & opt (some (positive_int "--stop-after")) None
      & info [ "stop-after" ] ~docv:"W"
          ~doc:
            "End the run after $(docv) completed windows — the \"kill\" \
             half of a resume-equality check.")
  in
  let bisect_arg =
    Arg.(
      value & flag
      & info [ "bisect" ]
          ~doc:
            "On an audited violation, binary-search the stored checkpoints \
             (restore-and-audit probes) to the offending window and replay \
             just that window with tracing attached. Needs $(b,--dir).")
  in
  let audit_every_arg =
    Arg.(
      value
      & opt (positive_int "--audit-every") 4
      & info [ "audit-every" ] ~docv:"N"
          ~doc:"Run the invariant audit at every Nth checkpoint.")
  in
  let rate_arg =
    Arg.(
      value
      & opt float 200.0
      & info [ "rate" ] ~docv:"R"
          ~doc:"Offered circuit-setup rate per simulated second.")
  in
  let churn_arg =
    Arg.(
      value
      & opt int 2
      & info [ "churn" ] ~docv:"N"
          ~doc:"Link-failure injections per window (0 disables churn).")
  in
  let partition_every_arg =
    Arg.(
      value
      & opt int 8
      & info [ "partition-every" ] ~docv:"N"
          ~doc:"Separator cut-and-heal every Nth window (0 = never).")
  in
  let inject_at_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "inject-at" ] ~docv:"S"
          ~doc:
            "Plant a reservation leak at this simulated time (seconds) — \
             the seeded invariant violation the audit must catch.")
  in
  let inject_link_arg =
    Arg.(
      value
      & opt int 0
      & info [ "inject-link" ] ~docv:"L"
          ~doc:"Link the planted leak inflates.")
  in
  let inject_cells_arg =
    Arg.(
      value
      & opt (positive_int "--inject-cells") 3
      & info [ "inject-cells" ] ~docv:"C"
          ~doc:"Cells the planted leak inflates the reservation by.")
  in
  let print_report pre (r : Faults.Soak.report) =
    Format.printf
      "%s%d windows over %.1f s simulated: %d arrivals, %d established, %d \
       failed, %d granted, %d denied@."
      pre r.windows
      (Netsim.Time.to_s r.sim_time)
      r.arrivals r.established r.failed r.granted r.denied;
    Format.printf
      "%s  churn: %d link failures, %d repairs, %d partitions; %d/%d \
       reconfigurations converged; %d rerouted, %d dissolved, %d readmitted@."
      pre r.link_failures r.link_repairs r.partitions r.reconfigs_converged
      r.reconfigs r.rerouted r.dissolved r.readmitted;
    let n_ck = List.length r.checkpoints in
    let bytes =
      match List.rev r.checkpoints with
      | last :: _ -> last.Faults.Soak.ck_bytes
      | [] -> 0
    in
    let write_ms =
      List.fold_left
        (fun a c -> a +. float_of_int c.Faults.Soak.ck_write_ns)
        0.0 r.checkpoints
      /. float_of_int (max 1 n_ck)
      /. 1e6
    in
    Format.printf
      "%s  %d checkpoints (%d bytes each, %.2f ms mean write); audits %d \
       run / %d clean; digest %08x@."
      pre n_ck bytes write_ms r.audits_run r.audits_clean
      (r.final_digest land 0xFFFFFFFF);
    match r.violation with
    | None -> ()
    | Some (w, viols) ->
      Format.printf "%s  VIOLATION at window %d:@." pre w;
      List.iter (fun v -> Format.printf "%s    %s@." pre v) viols
  in
  let run kind switches hours every_ms dir resume stop_after bisect
      audit_every rate churn partition_every inject_at inject_link
      inject_cells sweep jobs seed trace metrics =
    let cfg =
      {
        Faults.Soak.default_config with
        every = Netsim.Time.ms every_ms;
        total =
          (if hours > 0.0 then
             Netsim.Time.s (max 1 (int_of_float (hours *. 3600.0)))
           else Faults.Soak.default_config.total);
        rate;
        churn_per_window = max 0 churn;
        partition_every = max 0 partition_every;
        audit_every;
        inject =
          (match inject_at with
          | Some at_s ->
            Some
              ( int_of_float (at_s *. 1e9) (* seconds -> Time.t ns *),
                inject_link,
                inject_cells )
          | None -> None);
        seed;
      }
    in
    let mk_graph () =
      let g = make_topology kind switches in
      (* every switch gets at least one host so circuits can land
         anywhere, as the partition scenario does *)
      for s = 0 to Topo.Graph.switch_count g - 1 do
        if Topo.Graph.hosts_of_switch g s = [] then begin
          let h = Topo.Graph.add_host g in
          ignore (Topo.Graph.connect g (Topo.Graph.Switch s) (Topo.Graph.Host h))
        end
      done;
      g
    in
    if sweep > 0 then begin
      (* independent soaks, one per seed, fanned over domains — the
         seq-vs-par equality CI asserts --jobs does not change a byte *)
      let seeds = List.init sweep (fun i -> seed + i) in
      let results =
        sweep_metrics ~jobs ~seeds ~trace ~metrics (fun s sink ->
            Faults.Soak.run ~obs:sink ~mk_graph
              { cfg with Faults.Soak.seed = s })
      in
      List.iter
        (fun (s, (r : Faults.Soak.report)) ->
          Format.printf
            "seed %d: %d windows, digest %08x, audits %d/%d clean, %d \
             arrivals, %d established, violation=%b@."
            s r.windows
            (r.final_digest land 0xFFFFFFFF)
            r.audits_clean r.audits_run r.arrivals r.established
            (r.violation <> None))
        results
    end
    else begin
      let obs = make_sink ~trace ~metrics in
      (match dir with
      | Some d when not (Sys.file_exists d) -> Sys.mkdir d 0o755
      | _ -> ());
      let r = Faults.Soak.run ~obs ?dir ?resume ?stop_after ~mk_graph cfg in
      print_report "" r;
      (match (r.violation, bisect, dir) with
      | Some (detected, _), true, Some d ->
        let b = Faults.Soak.bisect ~obs ~dir:d cfg ~detected in
        Format.printf
          "bisected to window %d (detected at %d) in %d probes + 1 traced \
           window, %.2f s wall:@."
          b.offending_window b.detected_window b.probes b.bisect_wall_s;
        List.iter (Format.printf "  %s@.") b.replay_violations
      | Some _, true, None ->
        prerr_endline "an2sim soak: --bisect needs --dir (stored checkpoints)"
      | _ -> ());
      finish_obs obs ~trace ~metrics
    end
  in
  let doc =
    "Endurance soak: hours of simulated lifetime composing the TPS \
     workload, link churn with skeptic-gated repair, and partition \
     episodes; a byte-exact snapshot per window, conservation audits at \
     every $(b,--audit-every)th checkpoint, resume from any checkpoint \
     ($(b,--resume)) byte-identical to the uninterrupted run, and \
     automatic bisection of a violation to its window ($(b,--bisect))."
  in
  Cmd.v (Cmd.info "soak" ~doc)
    Term.(
      const run $ kind_arg $ switches_arg $ hours_arg $ every_arg $ dir_arg
      $ resume_arg $ stop_after_arg $ bisect_arg $ audit_every_arg $ rate_arg
      $ churn_arg $ partition_every_arg $ inject_at_arg $ inject_link_arg
      $ inject_cells_arg $ sweep_arg $ jobs_arg $ seed_arg $ trace_arg
      $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* report: render a metrics / heartbeat / trace bundle produced by the
   other subcommands into a human-readable run summary. *)

let report_cmd =
  let metrics_in_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Metrics JSON written by a run's $(b,--metrics).")
  in
  let heartbeat_in_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "heartbeat" ] ~docv:"FILE"
          ~doc:"Flight-recorder JSONL written by a run's $(b,--heartbeat).")
  in
  let trace_in_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Chrome trace JSON written by a run's $(b,--trace).")
  in
  let read_file file =
    let ic = open_in_bin file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let counters_of json =
    List.map (fun (k, v) -> (k, Obs.Json.num v)) (Obs.Json.obj (Obs.Json.member "counters" json))
  in
  let counter counters name = List.assoc_opt name counters in
  let report_metrics json =
    let counters = counters_of json in
    (* Per-domain utilization, when the run carried the Parprof window
       profiler (partitioned runs). Partition p is driven by worker
       domain (p mod workers) every window. *)
    (match counter counters "parprof.workers" with
     | None ->
       print_endline
         "per-domain profile: none (no parprof.* counters; run with \
          --partitions/--par-domains > 1)"
     | Some w ->
       let workers = int_of_float w in
       let parts =
         match counter counters "parprof.parts" with
         | Some p -> int_of_float p
         | None -> workers
       in
       Printf.printf "per-domain profile: %d partitions on %d worker domains" parts workers;
       (match counter counters "parprof.lookahead_ns" with
        | Some l -> Printf.printf ", lookahead %.0f ns\n" l
        | None -> print_newline ());
       for d = 0 to workers - 1 do
         let owned =
           List.filter (fun p -> p mod workers = d) (List.init parts Fun.id)
         in
         let sum fmt =
           List.fold_left
             (fun acc p ->
               match counter counters (Printf.sprintf fmt p) with
               | Some v -> acc +. v
               | None -> acc)
             0.0 owned
         in
         let busy = sum (format_of_string "parprof.p%d.busy_ns") in
         let dispatched = sum (format_of_string "parprof.p%d.dispatched") in
         let windows =
           match counter counters (Printf.sprintf "parprof.p%d.windows" (List.hd owned)) with
           | Some v -> v
           | None -> 0.0
         in
         let wait =
           match counter counters (Printf.sprintf "parprof.d%d.wait_ns" d) with
           | Some v -> v
           | None -> 0.0
         in
         let util =
           if busy +. wait > 0.0 then 100.0 *. busy /. (busy +. wait) else 0.0
         in
         Printf.printf
           "domain %d: partitions [%s]; busy %.2f ms, barrier wait %.2f ms, \
            utilization %.1f%%, %.0f events over %.0f windows\n"
           d
           (String.concat "," (List.map string_of_int owned))
           (busy /. 1e6) (wait /. 1e6) util dispatched windows
       done);
    (* Headline counters and the busiest histograms. *)
    let top n cmp l =
      let sorted = List.sort cmp l in
      List.filteri (fun i _ -> i < n) sorted
    in
    let nonzero = List.filter (fun (_, v) -> v <> 0.0) counters in
    if nonzero <> [] then begin
      print_endline "top counters:";
      List.iter
        (fun (k, v) -> Printf.printf "  %-44s %.0f\n" k v)
        (top 12 (fun (_, a) (_, b) -> compare b a) nonzero)
    end;
    let hists = Obs.Json.obj (Obs.Json.member "histograms" json) in
    let hcount h = try Obs.Json.num (Obs.Json.member "count" h) with _ -> 0.0 in
    let busy = List.filter (fun (_, h) -> hcount h > 0.0) hists in
    if busy <> [] then begin
      print_endline "top histograms (by samples):";
      List.iter
        (fun (k, h) ->
          let f name =
            match Obs.Json.member_opt name h with
            | Some (Obs.Json.Num v) -> Printf.sprintf "%.4g" v
            | _ -> "-"
          in
          Printf.printf "  %-44s count=%.0f mean=%s p50=%s p90=%s p99=%s\n" k
            (hcount h) (f "mean") (f "p50") (f "p90") (f "p99"))
        (top 8 (fun (_, a) (_, b) -> compare (hcount b) (hcount a)) busy)
    end
  in
  let report_heartbeat text =
    let lines =
      List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)
    in
    match lines with
    | [] -> print_endline "heartbeat: empty recording"
    | first :: _ ->
      let last = List.nth lines (List.length lines - 1) in
      let jf = Obs.Json.parse first and jl = Obs.Json.parse last in
      let t j = Obs.Json.num (Obs.Json.member "t" j) in
      Printf.printf "heartbeat: %d snapshots (label %S) from t=%.3f ms to t=%.3f ms\n"
        (List.length lines)
        (Obs.Json.str (Obs.Json.member "label" jf))
        (t jf /. 1e6) (t jl /. 1e6);
      let cf = counters_of (Obs.Json.member "metrics" jf)
      and cl = counters_of (Obs.Json.member "metrics" jl) in
      let deltas =
        List.filter_map
          (fun (k, v) ->
            let v0 = match counter cf k with Some x -> x | None -> 0.0 in
            if v -. v0 <> 0.0 then Some (k, v0, v -. v0) else None)
          cl
        |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
      in
      (match deltas with
       | [] -> print_endline "  no counter movement between first and last snapshot"
       | _ ->
         print_endline "  counter movement, first -> last snapshot:";
         List.iteri
           (fun i (k, v0, d) ->
             if i < 12 then
               Printf.printf "    %-42s %+.0f (from %.0f)\n" k d v0)
           deltas)
  in
  let report_trace json =
    let events = Obs.Json.arr (Obs.Json.member "traceEvents" json) in
    let count ph =
      List.length
        (List.filter
           (fun e ->
             match Obs.Json.member_opt "ph" e with
             | Some (Obs.Json.Str s) -> s = ph
             | _ -> false)
           events)
    in
    let spans = count "X" and instants = count "i" and counters = count "C" in
    let fs = count "s" and ft = count "t" and ff = count "f" in
    Printf.printf
      "trace: %d events (%d spans, %d instants, %d counter samples)\n"
      (List.length events) spans instants counters;
    if fs + ft + ff > 0 then
      Printf.printf
        "  causal flows: %d started, %d relay steps, %d delivered\n" fs ft ff;
    match
      Obs.Json.member_opt "otherData" json
      |> Fun.flip Option.bind (Obs.Json.member_opt "dropped")
    with
    | Some (Obs.Json.Num d) when d > 0.0 ->
      Printf.printf "  (ring dropped %.0f older events)\n" d
    | _ -> ()
  in
  let run metrics heartbeat trace =
    if metrics = None && heartbeat = None && trace = None then
      failwith "an2sim report: pass at least one of --metrics, --heartbeat, --trace";
    (match metrics with
     | Some file -> report_metrics (Obs.Json.parse (read_file file))
     | None -> ());
    (match heartbeat with
     | Some file -> report_heartbeat (read_file file)
     | None -> ());
    (match trace with
     | Some file -> report_trace (Obs.Json.parse (read_file file))
     | None -> ())
  in
  let doc =
    "Render a run's --metrics / --heartbeat / --trace files into a \
     human-readable summary (per-domain utilization, top instruments, \
     counter movement, causal-flow counts)."
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(const run $ metrics_in_arg $ heartbeat_in_arg $ trace_in_arg)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "simulators for the AN2 local area network (Owicki, PODC 1993)" in
  let info = Cmd.info "an2sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            topo_cmd; fabric_cmd; reconfig_cmd; local_reconfig_cmd; flow_cmd;
            deadlock_cmd; e2e_cmd; multicast_cmd; adaptive_cmd; signaling_cmd;
            rebalance_cmd; churn_cmd; partition_cmd; tps_cmd; soak_cmd;
            report_cmd;
          ]))
