(* an2sim: a command-line front end to the AN2 simulators.

   Fifteen subcommands each run one experiment surface of the library:
   topo, fabric, reconfig, local-reconfig, flow, deadlock, e2e,
   multicast, adaptive, signaling, rebalance, churn, partition, tps and
   soak (see `an2sim CMD --help`). They share their run plumbing
   through one run context (below). The sixteenth, report, renders the
   files their --metrics, --heartbeat and --trace flags write.

   Bad option values and contradictory flags are usage errors (exit
   124), reported before anything runs. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Converters *)

(* Counts must be explicit and sane: a zero or negative value is a user
   error, not something to clamp silently. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= 1 -> Ok v
    | Some v -> Error (`Msg (Printf.sprintf "must be >= 1 (got %d)" v))
    | None -> Error (`Msg (Printf.sprintf "expected an integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* The same for counts where 0 means "none". *)
let nonneg_int =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= 0 -> Ok v
    | Some v -> Error (`Msg (Printf.sprintf "must be >= 0 (got %d)" v))
    | None -> Error (`Msg (Printf.sprintf "expected an integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* Probabilities and fractions of link rate: a number in [0, 1]. *)
let probability =
  let parse s =
    match float_of_string_opt s with
    | Some p when p >= 0.0 && p <= 1.0 -> Ok p
    | Some _ -> Error (`Msg (Printf.sprintf "must be in [0, 1] (got %s)" s))
    | None -> Error (`Msg (Printf.sprintf "expected a number, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

(* The two shapes of nearly every flag: --NAME VALUE with a default, and
   a bare switch. *)
let opt_arg parse default name ~docv ~doc =
  Arg.(value & opt parse default & info [ name ] ~docv ~doc)

let flag_arg name ~doc = Arg.(value & flag & info [ name ] ~doc)
let file_arg name ~doc = opt_arg (Arg.some Arg.string) None name ~docv:"FILE" ~doc

(* A topology kind, checked at parse time. [build switches] makes a
   fresh graph. The flat kinds take their size from --switches;
   "fat-tree:K" and "clos:RADIX[:TIERS]" carry it in the name and
   also return pod metadata. *)
type topology = { name : string; build : int -> Topo.Graph.t * Topo.Pods.t option }

let flat_topologies =
  let side ~min n = max min (int_of_float (sqrt (float_of_int n))) in
  [
    ("linear", Topo.Build.linear); ("ring", Topo.Build.ring); ("star", Topo.Build.star);
    ("grid", fun n -> Topo.Build.grid (side ~min:2 n) (side ~min:2 n));
    ("torus", fun n -> Topo.Build.torus (side ~min:3 n) (side ~min:3 n));
    ("src-lan", fun _ -> Topo.Build.src_lan ());
    ( "hypercube",
      fun n ->
        Topo.Build.hypercube
          (max 1 (int_of_float (Float.round (log (float_of_int n) /. log 2.0)))) );
    ("leaf-spine", fun n -> Topo.Build.leaf_spine ~spines:2 ~leaves:(max 1 (n - 2)));
    ( "random",
      fun n ->
        Topo.Build.random_connected ~rng:(Netsim.Rng.create 7) ~switches:n
          ~extra_links:(n / 2) );
  ]

let parse_topology name =
  let ( let* ) = Result.bind in
  let error fmt = Printf.ksprintf (fun m -> Error (`Msg (name ^ ": " ^ m))) fmt in
  let arity what s =
    match int_of_string_opt s with
    | Some v when v >= 4 && v mod 2 = 0 -> Ok v
    | _ -> error "%s must be an even integer >= 4 (got %S)" what s
  in
  let sized build =
    Ok { name; build = (fun _ -> let g, pods = build () in (g, Some pods)) }
  in
  match String.split_on_char ':' name with
  | [ "fat-tree" ] -> sized (fun () -> Topo.Build.fat_tree ~k:8)
  | [ "fat-tree"; k ] ->
    let* k = arity "K" k in
    sized (fun () -> Topo.Build.fat_tree ~k)
  | "clos" :: radix :: tiers ->
    let* radix = arity "RADIX" radix in
    let* tiers =
      match tiers with
      | [] | [ "3" ] -> Ok 3
      | [ "2" ] -> Ok 2
      | _ -> error "TIERS must be 2 or 3"
    in
    sized (fun () -> Topo.Build.folded_clos ~radix ~tiers)
  | _ -> (
    match List.assoc_opt name flat_topologies with
    | Some build -> Ok { name; build = (fun n -> (build n, None)) }
    | None -> error "unknown topology kind")

let topology_arg ~names ~default ~doc =
  let print ppf t = Format.pp_print_string ppf t.name in
  let topology = Arg.conv (parse_topology, print) in
  let default = Result.get_ok (parse_topology default) in
  Arg.(value & opt topology default & info names ~docv:"KIND" ~doc)

(* A topology at its size, checked by building it once before anything
   runs: a size its builder rejects (a ring of one switch) is a usage
   error, not a crash. [sample] is that build, with its pod metadata,
   for checking ids given on other flags; each run builds its own
   graph with [graph]. *)
type net = {
  kind : topology;
  switches : int;
  sample : Topo.Graph.t * Topo.Pods.t option;
}

let net_term kind_arg switches_arg =
  let check kind switches =
    match kind.build switches with
    | sample -> Ok { kind; switches; sample }
    | exception Invalid_argument m ->
      Error (Printf.sprintf "%s at size %d: %s" kind.name switches m)
  in
  Term.(term_result' ~usage:true (const check $ kind_arg $ switches_arg))

let graph net = fst (net.kind.build net.switches)

(* An id given on [flag] must name a link or a switch of the topology. *)
let check_id ~what ~count flag = function
  | Some id when id < 0 || id >= count ->
    Error
      (Printf.sprintf "%s %d: no such %s (the topology's %s ids are 0..%d)" flag
         id what what (count - 1))
  | _ -> Ok ()

let check_link net =
  check_id ~what:"link" ~count:(Topo.Graph.link_count (fst net.sample))

let check_switch net =
  check_id ~what:"switch" ~count:(Topo.Graph.switch_count (fst net.sample))

(* A scenario that pairs hosts or splits the switches refuses a
   topology with too few of them. *)
let check_at_least cmd ~what n count =
  if count >= n then Ok ()
  else
    Error
      (Printf.sprintf "%s needs a topology with >= %d %s (this one has %d)" cmd n
         what count)

let ( let* ) = Result.bind

let kind_arg =
  topology_arg ~names:[ "kind"; "topo" ] ~default:"src-lan"
    ~doc:
      "Topology: linear, ring, star, grid, torus, hypercube, leaf-spine, \
       src-lan, random, fat-tree:K (k-ary fat-tree with dual-homed hosts), \
       clos:RADIX[:TIERS] (folded Clos; TIERS is 2 or 3). The sized kinds \
       ignore $(b,--switches)."

let switches_arg = opt_arg Arg.int 10 "switches" ~docv:"N" ~doc:"Switch count."
let net_arg = net_term kind_arg switches_arg

(* ------------------------------------------------------------------ *)
(* Run context *)

(* The flag groups the simulating subcommands share, each a small term;
   [context] composes those a subcommand has flags for, and a group it
   lacks takes its default (no sweep, one partition, no heartbeat).
   - observability (--trace, --metrics): either enables the sink.
     Layers that take an Obs.Sink.t get per-event instrumentation, the
     rest record their [headline] numbers after the run.
   - seeds (--seed; --sweep, --jobs where a subcommand sweeps): a sweep
     runs each seed on its own enabled sink across domains
     (Netsim.Sweep) and the merged registry serves --metrics. Per-seed
     trace rings are not merged, so --trace is ignored under --sweep.
   - partitions (--partitions, --par-domains): one run split across
     engine partitions (Netsim.Cluster).
   - heartbeat (--heartbeat, --heartbeat-ms): a flight recorder for one
     run. It enables the sink by itself and is ignored under --sweep. *)

type ctx = {
  trace : string option;
  metrics : string option;
  seed : int;
  sweep : int;  (** 0: one run at [seed] *)
  jobs : int option;
  partitions : int;
  par_domains : int;
  recorder : (string * (Netsim.Time.t * Obs.Flight.t)) option;
}

let trace_arg =
  file_arg "trace"
    ~doc:
      "Write a Chrome trace_event JSON trace to $(docv) (load in \
       chrome://tracing or https://ui.perfetto.dev)."

let metrics_arg =
  file_arg "metrics" ~doc:"Write counters, gauges and histograms as JSON to $(docv)."

let seed_arg = opt_arg Arg.int 1 "seed" ~docv:"SEED" ~doc:"Random seed."

let sweep_arg =
  opt_arg Arg.int 0 "sweep" ~docv:"N"
    ~doc:"Run $(docv) seeds (seed, seed+1, ...) across domains and report per-seed \
          results plus aggregates. 0 disables."

let jobs_arg =
  opt_arg (Arg.some positive_int) None "jobs" ~docv:"J"
    ~doc:"Domains to use for $(b,--sweep) (>= 1; default: all cores)."

let partitions_arg =
  opt_arg positive_int 1 "partitions" ~docv:"P"
    ~doc:"Engine partitions for intra-run parallel simulation (>= 1; 1 = one engine, \
          same run path). Fixed $(docv) gives identical output at every \
          $(b,--par-domains) value."

let par_domains_arg =
  opt_arg positive_int 1 "par-domains" ~docv:"D"
    ~doc:"Worker domains driving the engine partitions of one run (>= 1; capped at \
          $(b,--partitions) and at the cores available). Does not affect output."

let heartbeat_arg =
  file_arg "heartbeat"
    ~doc:
      "Record a flight-recorder snapshot of the metrics registry every \
       $(b,--heartbeat-ms) of simulated time and write the JSONL to $(docv)."

let heartbeat_ms_arg =
  opt_arg positive_int 10 "heartbeat-ms" ~docv:"N"
    ~doc:"Simulated milliseconds between flight-recorder snapshots."

type seeding = No_seed | Seed | Sweep

let context ?(seeding = No_seed) ?(partitions = false) ?(heartbeat = false) () =
  let open Term.Syntax in
  let group on term default = if on then term else Term.const default in
  let+ trace = trace_arg
  and+ metrics = metrics_arg
  and+ seed = group (seeding <> No_seed) seed_arg 1
  and+ sweep, jobs = group (seeding = Sweep) Term.(product sweep_arg jobs_arg) (0, None)
  and+ partitions, par_domains =
    group partitions Term.(product partitions_arg par_domains_arg) (1, 1)
  and+ heartbeat, every_ms =
    group heartbeat Term.(product heartbeat_arg heartbeat_ms_arg) (None, 10)
  in
  (* [Netsim.Cluster.run] caps the worker domains at the cores; say
     so when it will. *)
  let cores = Domain.recommended_domain_count () in
  if par_domains > cores then
    Printf.eprintf "an2sim: --par-domains %d capped at %d (the cores available)\n"
      par_domains cores;
  let recorder =
    match heartbeat with
    | Some _ when sweep > 0 ->
      prerr_endline
        "an2sim: --heartbeat is ignored with --sweep (one recorder per run)";
      None
    | Some file -> Some (file, (Netsim.Time.ms every_ms, Obs.Flight.create ()))
    | None -> None
  in
  { trace; metrics; seed; sweep; jobs; partitions; par_domains; recorder }

let heartbeat ctx = Option.map snd ctx.recorder

(* One observed run of [f]: the sink is on when any artifact is asked
   for, and the artifacts are written once [f] returns. [ts_scale]
   converts trace timestamps to microseconds: 1e-3 for engine-driven
   simulations (nanosecond clocks), 1.0 for slotted ones (one slot
   rendered as one microsecond). *)
let observe ?(ts_scale = 1e-3) ctx f =
  let obs =
    if ctx.trace = None && ctx.metrics = None && ctx.recorder = None then
      Obs.Sink.null
    else Obs.Sink.create ()
  in
  let r = f obs in
  Option.iter
    (fun file -> Obs.Trace.write_chrome ~ts_scale file (Obs.Sink.trace obs))
    ctx.trace;
  Option.iter (fun file -> Obs.Metrics.write_json file (Obs.Sink.metrics obs)) ctx.metrics;
  Option.iter (fun (file, (_, flight)) -> Obs.Flight.write file flight) ctx.recorder;
  r

(* Run [once ~obs seed] once at --seed, observed, and print its result
   with [single]; or, under --sweep, for every seed of the sweep, then
   print each result with [per_seed] and the list with [summary]. *)
let run_seeds ctx ~once ~single ~per_seed ~summary =
  if ctx.sweep > 0 then begin
    if ctx.trace <> None then
      prerr_endline
        "an2sim: --trace is ignored with --sweep (per-seed traces are not \
         merged)";
    let seeds = List.init ctx.sweep (fun i -> ctx.seed + i) in
    let results, merged =
      Netsim.Sweep.map_obs ?domains:ctx.jobs ~seeds (fun s obs -> once ~obs s)
    in
    Option.iter (fun file -> Obs.Metrics.write_json file merged) ctx.metrics;
    List.iter (fun (s, r) -> per_seed s r) results;
    summary (List.map snd results)
  end
  else observe ctx (fun obs -> single (once ~obs ctx.seed))

(* [per_seed] for results printed as an indented block. *)
let seed_block print s r =
  Format.printf "seed %d:@." s;
  print "  " r

(* Headline numbers a subcommand records after its run. Registering an
   instrument on the disabled sink would grow its shared registry, so
   nothing is recorded unless the sink is on. *)
let headline ?(counters = []) ?(gauges = []) ?(samples = []) obs =
  if Obs.Sink.enabled obs then begin
    List.iter (fun (k, v) -> Obs.Metrics.Counter.set (Obs.Sink.counter obs k) v) counters;
    List.iter (fun (k, v) -> Obs.Metrics.Gauge.set (Obs.Sink.gauge obs k) v) gauges;
    List.iter
      (fun (k, vs) -> List.iter (Obs.Histogram.add (Obs.Sink.histogram obs k)) vs)
      samples
  end

let mean_over outs f =
  List.fold_left (fun a o -> a +. f o) 0.0 outs
  /. float_of_int (max 1 (List.length outs))

(* ------------------------------------------------------------------ *)
(* topo *)

let topo_cmd =
  let dot_arg = flag_arg "dot" ~doc:"Emit Graphviz instead." in
  let run net dot ctx =
    observe ctx (fun obs ->
        let g, pods = net.sample in
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
          let diameter = Topo.Paths.diameter g in
          let mean_distance = Topo.Paths.mean_distance g in
          let height = Topo.Spanning.height tree in
          let switches = Topo.Graph.switch_count g in
          Format.printf
            "diameter=%d mean-distance=%.2f spanning-height=%d up*/down* \
             stretch=%.3f@."
            diameter mean_distance height
            (Topo.Updown.mean_stretch g orientation);
          Format.printf "wait-for dependencies acyclic under up*/down*: %b@."
            (Topo.Updown.dependency_acyclic g ~restricted:(Some orientation));
          headline obs
            ~gauges:
              [
                ("topo.diameter", float_of_int diameter);
                ("topo.mean_distance", mean_distance);
                ("topo.spanning_height", float_of_int height);
              ]
            ~counters:[ ("topo.switches", switches) ];
          Obs.Sink.instant obs ~name:"topo" ~cat:"an2sim" ~ts:0 ~tid:0 ~v:switches
        end)
  in
  let doc = "Build a topology and report its routing properties." in
  Cmd.v (Cmd.info "topo" ~doc)
    Term.(const run $ net_arg $ dot_arg $ context ())

(* ------------------------------------------------------------------ *)
(* fabric *)

let fabric_cmd =
  let scheduler_arg =
    let doc = "Scheduler: fifo, pim1, pim3, islip3, greedy, maximum, oq." in
    let schedulers =
      Fabric.Voq_switch.
        [
          ("fifo", `Fifo); ("pim1", `Voq (Pim 1)); ("pim3", `Voq (Pim 3));
          ("islip3", `Voq (Islip 3)); ("greedy", `Voq Greedy_random);
          ("maximum", `Voq Maximum); ("oq", `Oq);
        ]
    in
    opt_arg (Arg.enum schedulers) (`Voq (Fabric.Voq_switch.Pim 3)) "scheduler" ~docv:"S"
      ~doc
  in
  let load_arg = opt_arg probability 0.9 "load" ~docv:"L" ~doc:"Offered load." in
  let slots_arg = opt_arg positive_int 20_000 "slots" ~docv:"SLOTS" ~doc:"Slots." in
  let pattern_arg =
    let doc = "Arrival pattern: uniform, bursty, hotspot, permutation." in
    let patterns =
      [
        ("uniform", `Uniform); ("bursty", `Bursty); ("hotspot", `Hotspot);
        ("permutation", `Permutation);
      ]
    in
    opt_arg (Arg.enum patterns) `Uniform "pattern" ~docv:"P" ~doc
  in
  let run scheduler load slots pattern ctx =
    let n = 16 in
    (* Slot-numbered timestamps: render one slot as one microsecond. *)
    observe ~ts_scale:1.0 ctx (fun obs ->
        let rng = Netsim.Rng.create ctx.seed in
        let model =
          match scheduler with
          | `Fifo -> Fabric.Fifo_switch.create ~rng ~n
          | `Voq scheduler ->
            Fabric.Voq_switch.create_observed ~obs ~rng ~n ~scheduler
              ~on_transfer:(fun _ ~slot:_ -> ())
          | `Oq -> Fabric.Output_queued.create ~rng ~n ~k:n
        in
        let traffic =
          match pattern with
          | `Uniform -> Fabric.Traffic.uniform ~rng ~n ~load
          | `Bursty -> Fabric.Traffic.bursty ~rng ~n ~load ~mean_burst:16.0
          | `Hotspot -> Fabric.Traffic.hotspot ~rng ~n ~load ~hot_fraction:0.2
          | `Permutation -> Fabric.Traffic.permutation ~rng ~n ~load
        in
        let m = Fabric.Harness.run ~obs ~traffic ~model ~slots () in
        Format.printf "%a@." Fabric.Harness.pp_metrics m)
  in
  let doc = "Simulate one 16x16 switch under a traffic pattern." in
  Cmd.v (Cmd.info "fabric" ~doc)
    Term.(
      const run $ scheduler_arg $ load_arg $ slots_arg $ pattern_arg
      $ context ~seeding:Seed ())

(* ------------------------------------------------------------------ *)
(* reconfig *)

let reconfig_cmd =
  let fail_switch_arg =
    opt_arg (Arg.some Arg.int) None "fail-switch" ~docv:"S" ~doc:"Switch to kill."
  in
  let fail_link_arg =
    opt_arg (Arg.some Arg.int) None "fail-link" ~docv:"L" ~doc:"Link to kill."
  in
  let loss_arg =
    opt_arg probability 0.0 "control-loss" ~docv:"P"
      ~doc:"Control-cell drop probability (the reliable layer retransmits, so the \
            protocol still converges)."
  in
  let run net fail_switch fail_link loss ctx =
    let* () = check_switch net "--fail-switch" fail_switch in
    let* () = check_link net "--fail-link" fail_link in
    let once ~obs seed =
      let g = graph net in
      let params =
        { Reconfig.Runner.default_params with control_loss = loss; seed }
      in
      let heartbeat = heartbeat ctx in
      let partitions = ctx.partitions and domains = ctx.par_domains in
      let after fail =
        Reconfig.Runner.run_after_failure ~params ~obs ?heartbeat ~partitions ~domains g
          ~fail
      in
      match (fail_switch, fail_link) with
      | Some s, _ -> after (`Switch s)
      | None, Some l -> after (`Link l)
      | None, None ->
        Reconfig.Runner.run ~params ~obs ?heartbeat ~partitions ~domains g
          ~triggers:[ (0, 0) ]
    in
    Ok
      (run_seeds ctx ~once
        ~single:(fun (o : Reconfig.Runner.outcome) ->
          Format.printf
            "converged=%b elapsed=%a messages=%d agreement=%b topology-correct=%b@."
            o.converged Netsim.Time.pp o.elapsed o.messages o.agreement
            o.topology_correct;
          Format.printf "winning tag=%a propagation-tree depth=%d (BFS %d)@."
            Reconfig.Tag.pp o.final_tag o.tree_depth o.bfs_depth)
        ~per_seed:(fun s (o : Reconfig.Runner.outcome) ->
          Format.printf "seed %d: converged=%b elapsed=%a messages=%d wire=%d@." s
            o.converged Netsim.Time.pp o.elapsed o.messages o.wire_transmissions)
        ~summary:(fun outs ->
          let converged =
            List.length (List.filter (fun o -> o.Reconfig.Runner.converged) outs)
          in
          Format.printf
            "sweep of %d seeds: converged %d/%d, mean elapsed %.2f ms, mean \
             messages %.0f, mean wire %.0f@."
            ctx.sweep converged (List.length outs)
            (mean_over outs (fun o ->
                 float_of_int o.Reconfig.Runner.elapsed /. 1e6))
            (mean_over outs (fun o -> float_of_int o.Reconfig.Runner.messages))
            (mean_over outs (fun o ->
                 float_of_int o.Reconfig.Runner.wire_transmissions))))
  in
  let doc = "Run the distributed reconfiguration protocol." in
  Cmd.v (Cmd.info "reconfig" ~doc)
    Term.(
      term_result' ~usage:true
        (const run $ net_arg $ fail_switch_arg $ fail_link_arg $ loss_arg
        $ context ~seeding:Sweep ~partitions:true ~heartbeat:true ()))

(* ------------------------------------------------------------------ *)
(* flow *)

let flow_cmd =
  let credits_arg = opt_arg positive_int 34 "credits" ~docv:"C" ~doc:"Credits per VC." in
  let hops_arg = opt_arg positive_int 3 "hops" ~docv:"H" ~doc:"Links on the path." in
  let loss_arg =
    opt_arg probability 0.0 "credit-loss" ~docv:"P" ~doc:"Credit-message drop prob."
  in
  let resync_arg = flag_arg "resync" ~doc:"Enable periodic resync." in
  let run credits hops loss resync ctx =
    let params seed =
      { Flow.Chain.default_params with
        credits; hops; credit_loss_prob = loss; seed;
        resync_interval = (if resync then Some (Netsim.Time.ms 1) else None) }
    in
    run_seeds ctx
      ~once:(fun ~obs seed -> Flow.Chain.run ~obs (params seed))
      ~single:(fun (r : Flow.Chain.result) ->
        Format.printf
          "rtt-credits-needed=%d throughput=%.3f mean-latency=%.1fus \
           p99=%.1fus max-occupancy=%d overflow=%b@."
          (Flow.Chain.round_trip_credits (params ctx.seed))
          r.throughput r.mean_latency r.p99_latency r.max_occupancy r.overflowed;
        Format.printf "windows:";
        Array.iter (fun w -> Format.printf " %.2f" w) r.window_throughput;
        Format.printf "@.")
      ~per_seed:(fun s (r : Flow.Chain.result) ->
        Format.printf
          "seed %d: throughput=%.3f mean-latency=%.1fus p99=%.1fus \
           max-occupancy=%d overflow=%b@."
          s r.throughput r.mean_latency r.p99_latency r.max_occupancy
          r.overflowed)
      ~summary:(fun rs ->
        let tps = List.map (fun (r : Flow.Chain.result) -> r.throughput) rs in
        Format.printf
          "sweep of %d seeds: throughput mean %.3f (min %.3f, max %.3f), mean \
           p99 %.1fus@."
          ctx.sweep
          (mean_over rs (fun (r : Flow.Chain.result) -> r.throughput))
          (List.fold_left min infinity tps)
          (List.fold_left max neg_infinity tps)
          (mean_over rs (fun (r : Flow.Chain.result) -> r.p99_latency)))
  in
  let doc = "Credit flow control along a chain of switches." in
  Cmd.v (Cmd.info "flow" ~doc)
    Term.(
      const run $ credits_arg $ hops_arg $ loss_arg $ resync_arg
      $ context ~seeding:Sweep ())

(* ------------------------------------------------------------------ *)
(* deadlock *)

let deadlock_cmd =
  let buffering_arg =
    let doc = "Buffering: shared or per-vc." in
    let bufferings =
      [ ("shared", Flow.Deadlock.Shared_fifo 2); ("per-vc", Flow.Deadlock.Per_vc 2) ]
    in
    opt_arg (Arg.enum bufferings) (Flow.Deadlock.Shared_fifo 2) "buffering" ~docv:"B" ~doc
  in
  let routing_arg =
    let doc = "Routing: shortest or updown." in
    let routings =
      [ ("shortest", Flow.Deadlock.Shortest); ("updown", Flow.Deadlock.Updown) ]
    in
    opt_arg (Arg.enum routings) Flow.Deadlock.Shortest "routing" ~docv:"R" ~doc
  in
  let run net buffering routing ctx =
    if Topo.Graph.switch_count (fst net.sample) < 2 then
      Error "deadlock needs a topology of at least two switches"
    else
      Ok
        (observe ~ts_scale:1.0 ctx (fun obs ->
            let g = graph net in
            let r =
              Flow.Deadlock.run ~obs g
                { Flow.Deadlock.default_params with
                  buffering; routing; seed = ctx.seed;
                  circuits = Topo.Graph.switch_count g }
            in
            Format.printf "deadlocked=%b%s delivered=%d stranded=%d@." r.deadlocked
              (match r.deadlock_slot with
               | Some s -> Printf.sprintf " (at slot %d)" s
               | None -> "")
              r.delivered r.stranded))
  in
  let doc = "Probe buffer-wait deadlock under a buffering/routing discipline." in
  Cmd.v (Cmd.info "deadlock" ~doc)
    Term.(
      term_result' ~usage:true
        (const run $ net_arg $ buffering_arg $ routing_arg
        $ context ~seeding:Seed ()))

(* ------------------------------------------------------------------ *)
(* e2e *)

let e2e_cmd =
  let hops_arg = opt_arg positive_int 3 "hops" ~docv:"H" ~doc:"Chain length." in
  let e2e_topo_arg =
    topology_arg ~names:[ "topo"; "kind" ] ~default:"linear"
      ~doc:
        "Topology to run over (default a $(b,--hops)-switch chain). Any \
         $(b,topo) kind works, e.g. fat-tree:8; kinds that already carry \
         hosts route between the first and last host (on a fat-tree these \
         sit in different pods), others get a host pair at the ends."
  in
  let frame = 128 in
  let cbr_arg =
    opt_arg nonneg_int 8 "cbr" ~docv:"CELLS"
      ~doc:"Guaranteed cells/frame (0 = none, at most the 128-slot frame)."
  in
  let be_arg = flag_arg "be" ~doc:"Add a greedy BE circuit." in
  let packets_arg =
    opt_arg nonneg_int 0 "packets" ~docv:"BYTES"
      ~doc:"Add a packet source of this byte size (0 = none)."
  in
  let ms_arg = opt_arg nonneg_int 10 "duration-ms" ~docv:"MS" ~doc:"Run length." in
  let run net cbr be packets ms ctx =
    (* Everything is rebuilt from the seed inside [once] so sweep jobs
       share no state. *)
    let once ~obs seed =
      let g = graph net in
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
      let p = { An2.Netrun.default_params with seed } in
      let r =
        An2.Netrun.run ~obs ?heartbeat:(heartbeat ctx) ~partitions:ctx.partitions
          ~domains:ctx.par_domains net p ~sources:!sources
          ~duration:(Netsim.Time.ms ms) ()
      in
      List.iter
        (fun (id, (s : An2.Netrun.vc_stats)) ->
          let key name = Printf.sprintf "e2e.vc%d.%s" id name in
          headline obs
            ~counters:
              [
                (key "sent", s.sent); (key "delivered", s.delivered);
                (key "dropped", s.dropped);
              ]
            ~gauges:[ (key "mean_latency_us", s.mean_latency_us) ];
          Obs.Sink.instant obs ~name:"vc-done" ~cat:"e2e"
            ~ts:(Netsim.Time.ms ms) ~tid:id ~v:s.delivered)
        r.per_vc;
      headline obs
        ~gauges:
          [ ("e2e.max_guaranteed_backlog", float_of_int r.max_guaranteed_backlog) ];
      r
    in
    let delivered (r : An2.Netrun.result) =
      List.fold_left (fun a (_, (v : An2.Netrun.vc_stats)) -> a + v.delivered) 0 r.per_vc
    in
    if cbr <= 0 && (not be) && packets <= 0 then
      Error "nothing to run: pass --cbr, --be and/or --packets"
    else if cbr > frame then
      Error
        (Printf.sprintf
           "--cbr %d exceeds link capacity: a link carries at most %d cells per %d-slot frame"
           cbr frame frame)
    else
      Ok
        (run_seeds ctx ~once
           ~single:(fun (r : An2.Netrun.result) ->
             List.iter
               (fun (id, (s : An2.Netrun.vc_stats)) ->
                 Format.printf
                   "vc %d: sent=%d delivered=%d dropped=%d latency mean=%.1f \
                    p99=%.1f max=%.1f jitter=%.1f (us)@."
                   id s.sent s.delivered s.dropped s.mean_latency_us
                   s.p99_latency_us s.max_latency_us s.jitter_us;
                 if s.packets_sent > 0 then
                   Format.printf
                     "      packets: %d sent, %d reassembled, mean latency \
                      %.1fus@."
                     s.packets_sent s.packets_delivered s.packet_mean_latency_us)
               r.per_vc;
             Format.printf "worst guaranteed backlog: %d cells (%.2f frames)@."
               r.max_guaranteed_backlog r.guaranteed_backlog_frames)
           ~per_seed:(fun s (r : An2.Netrun.result) ->
             let sent, dropped =
               List.fold_left
                 (fun (a, c) (_, (v : An2.Netrun.vc_stats)) ->
                   (a + v.sent, c + v.dropped))
                 (0, 0) r.per_vc
             in
             Format.printf
               "seed %d: sent=%d delivered=%d dropped=%d worst-backlog=%d@." s
               sent (delivered r) dropped r.max_guaranteed_backlog)
           ~summary:(fun rs ->
             Format.printf
               "sweep of %d seeds: mean delivered %.0f, worst guaranteed \
                backlog %d cells@."
               ctx.sweep
               (mean_over rs (fun r -> float_of_int (delivered r)))
               (List.fold_left
                  (fun a (r : An2.Netrun.result) -> max a r.max_guaranteed_backlog)
                  0 rs)))
  in
  let doc = "End-to-end run over a chain: guaranteed + best-effort traffic." in
  Cmd.v (Cmd.info "e2e" ~doc)
    Term.(
      term_result' ~usage:true
        (const run $ net_term e2e_topo_arg hops_arg $ cbr_arg $ be_arg
       $ packets_arg $ ms_arg
        $ context ~seeding:Sweep ~partitions:true ~heartbeat:true ()))

(* ------------------------------------------------------------------ *)
(* local-reconfig *)

let local_reconfig_cmd =
  let radius_arg = opt_arg nonneg_int 2 "radius" ~docv:"R" ~doc:"Hop radius." in
  let fail_link_arg = opt_arg Arg.int 3 "fail-link" ~docv:"L" ~doc:"Link to kill." in
  let run net radius fail_link ctx =
    let* () = check_link net "--fail-link" (Some fail_link) in
    Ok
      (observe ctx (fun obs ->
          let g = graph net in
          let o = Reconfig.Local.run_after_failure ~radius ~obs g ~fail:fail_link in
          Format.printf
            "converged=%b participants=%d/%d messages=%d elapsed=%a \
             region-correct=%b@."
            o.converged o.participants o.total_switches o.messages Netsim.Time.pp
            o.elapsed o.region_correct))
  in
  let doc = "Scoped (localized) reconfiguration around one failed link." in
  Cmd.v (Cmd.info "local-reconfig" ~doc)
    Term.(
      term_result' ~usage:true
        (const run $ net_arg $ radius_arg $ fail_link_arg $ context ()))

(* ------------------------------------------------------------------ *)
(* multicast *)

let multicast_cmd =
  let group_arg = opt_arg positive_int 4 "group" ~docv:"K" ~doc:"Destination count." in
  let run group ctx =
    let net = An2.Network.create (Topo.Build.src_lan ()) in
    let dests = List.init group (fun i -> ((i + 1) * 3) mod 24) in
    match
      ( An2.Multicast.build net ~source_host:0 ~dest_hosts:dests,
        An2.Multicast.unicast_transmissions net ~source_host:0 ~dest_hosts:dests )
    with
    | Error e, _ | _, Error e -> Error (Printf.sprintf "--group %d: %s" group e)
    | Ok mc, Ok unicast ->
      Ok
        (observe ctx (fun obs ->
             let tree = An2.Multicast.link_transmissions mc in
             Format.printf
               "group of %d: tree crosses %d links vs %d for unicasts (%.0f%% \
                saved)@."
               group tree unicast
               (100.0 *. (1.0 -. (float_of_int tree /. float_of_int unicast)));
             let d =
               An2.Multicast.simulate net mc ~rate:0.2 ~duration:(Netsim.Time.ms 2)
             in
             Format.printf "delivered all: %b; per-destination mean latency:@."
               d.delivered_all;
             List.iter
               (fun (h, l) -> Format.printf "  host %d: %.1fus@." h l)
               d.per_dest_latency_us;
             headline obs
               ~counters:
                 [
                   ("multicast.tree_transmissions", tree);
                   ("multicast.unicast_transmissions", unicast);
                 ]
               ~samples:
                 [ ("multicast.dest_latency_us", List.map snd d.per_dest_latency_us) ];
             Obs.Sink.instant obs ~name:"multicast" ~cat:"an2sim" ~ts:0 ~tid:0
               ~v:group))
  in
  let doc = "Multicast tree economy and delivery on the SRC LAN." in
  Cmd.v (Cmd.info "multicast" ~doc)
    Term.(term_result' ~usage:true (const run $ group_arg $ context ()))

(* ------------------------------------------------------------------ *)
(* adaptive *)

let adaptive_cmd =
  let circuits_arg = opt_arg positive_int 32 "circuits" ~docv:"V" ~doc:"Circuits." in
  let active_arg = opt_arg nonneg_int 2 "active" ~docv:"A" ~doc:"Busy circuits." in
  let run circuits active ctx =
    let buffers = Flow.Adaptive.default_params.total_buffers in
    if active > circuits then
      Error
        (Printf.sprintf "--active %d exceeds --circuits %d" active circuits)
    else if circuits > buffers then
      Error
        (Printf.sprintf
           "--circuits %d exceeds the link's %d-buffer pool (one buffer per circuit)"
           circuits buffers)
    else
      Ok
        (observe ctx (fun obs ->
            let base = { Flow.Adaptive.default_params with circuits; active } in
            List.iter
              (fun (name, policy) ->
                let r = Flow.Adaptive.run { base with policy } in
                Format.printf "%-10s aggregate=%.3f overflow=%b reallocations=%d@."
                  name r.aggregate_throughput r.overflowed r.reallocations;
                let key k = "adaptive." ^ name ^ "." ^ k in
                headline obs
                  ~gauges:[ (key "aggregate_throughput", r.aggregate_throughput) ]
                  ~counters:[ (key "reallocations", r.reallocations) ];
                Obs.Sink.instant obs ~name ~cat:"adaptive" ~ts:0 ~tid:0
                  ~v:r.reallocations)
              [
                ("static", Flow.Adaptive.Static);
                ( "adaptive",
                  Flow.Adaptive.Adaptive { window = Netsim.Time.us 500; floor = 2 } );
              ]))
  in
  let doc = "Static vs adaptive per-circuit buffer allocation on one link." in
  Cmd.v (Cmd.info "adaptive" ~doc)
    Term.(
      term_result' ~usage:true (const run $ circuits_arg $ active_arg $ context ()))

(* ------------------------------------------------------------------ *)
(* rebalance *)

let rebalance_cmd =
  let circuits_arg = opt_arg nonneg_int 6 "circuits" ~docv:"K" ~doc:"Circuits." in
  let stretch_arg =
    opt_arg nonneg_int 1 "max-stretch" ~docv:"S" ~doc:"Detour bound."
  in
  let run circuits max_stretch ctx =
    observe ctx (fun obs ->
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
          "%d identical circuits: hottest link %d -> %d after %d moves (stddev \
           %.2f -> %.2f)@."
          circuits before.max_load after.max_load moves before.stddev after.stddev;
        headline obs
          ~gauges:
            [
              ("rebalance.max_load_before", float_of_int before.max_load);
              ("rebalance.max_load_after", float_of_int after.max_load);
            ]
          ~counters:[ ("rebalance.moves", moves) ];
        Obs.Sink.instant obs ~name:"rebalance" ~cat:"an2sim" ~ts:0 ~tid:0 ~v:moves)
  in
  let doc = "Load-balance a circuit pile-up on a torus." in
  Cmd.v (Cmd.info "rebalance" ~doc)
    Term.(const run $ circuits_arg $ stretch_arg $ context ())

(* ------------------------------------------------------------------ *)
(* signaling *)

let signaling_cmd =
  let hops_arg = opt_arg positive_int 3 "hops" ~docv:"H" ~doc:"Path length." in
  let run hops ctx =
    observe ctx (fun obs ->
        let g = Topo.Build.linear hops in
        let h1, h2 = Topo.Build.with_host_pair g in
        let net = An2.Network.create g in
        match
          An2.Signaling.setup_with_data net ~src_host:h1 ~dst_host:h2
            An2.Signaling.default_params
        with
        | Error e -> failwith e
        | Ok r ->
          Format.printf
            "setup=%.1fus first-data=%.1fus delivered=%d in-order=%b \
             max-backlog=%d@."
            r.setup_time_us r.first_data_latency_us r.delivered r.in_order
            r.max_buffered_awaiting_entry;
          headline obs
            ~gauges:
              [
                ("signaling.setup_time_us", r.setup_time_us);
                ("signaling.first_data_latency_us", r.first_data_latency_us);
              ]
            ~counters:[ ("signaling.delivered", r.delivered) ];
          Obs.Sink.span obs ~name:"setup" ~cat:"signaling" ~ts:0
            ~dur:(int_of_float (r.setup_time_us *. 1000.0))
            ~tid:0 ~v:r.delivered)
  in
  let doc = "Circuit setup with data cells following immediately." in
  Cmd.v (Cmd.info "signaling" ~doc) Term.(const run $ hops_arg $ context ())

(* ------------------------------------------------------------------ *)
(* churn *)

let churn_cmd =
  let fault_rate_arg =
    opt_arg Arg.float 2.0 "fault-rate" ~docv:"R"
      ~doc:"Random link faults per simulated second (Poisson, seeded). 0 disables \
            random churn."
  in
  let mttr_arg =
    opt_arg nonneg_int 200 "mttr-ms" ~docv:"MS"
      ~doc:"Mean time to repair a randomly failed link, in ms."
  in
  let flap_link_arg =
    opt_arg (Arg.some Arg.int) None "flap-link" ~docv:"L"
      ~doc:"Flap link $(docv) for the whole run."
  in
  let flap_period_arg =
    opt_arg nonneg_int 300 "flap-period-ms" ~docv:"MS"
      ~doc:"Full flap cycle length in ms (half down, half up) for $(b,--flap-link)."
  in
  let crash_switch_arg =
    opt_arg (Arg.some Arg.int) None "crash-switch" ~docv:"S"
      ~doc:"Crash switch $(docv) a quarter into the run and restart it $(b,--mttr-ms) \
            x 2 later."
  in
  let loss_arg =
    opt_arg probability 0.0 "control-loss" ~docv:"P"
      ~doc:"Control-cell drop probability during the middle half of the run (a timed \
            control-loss window)."
  in
  let duration_arg =
    opt_arg nonneg_int 5000 "duration-ms" ~docv:"MS" ~doc:"Observation window in ms."
  in
  let circuits_arg =
    opt_arg nonneg_int 8 "circuits" ~docv:"K"
      ~doc:"Random switch-to-switch circuits whose lost cells we count."
  in
  let switch_links g =
    List.filter_map
      (fun l ->
        match (l.Topo.Graph.a.node, l.Topo.Graph.b.node) with
        | Topo.Graph.Switch _, Topo.Graph.Switch _ -> Some l.Topo.Graph.link_id
        | _ -> None)
      (Topo.Graph.links g)
  in
  let run net fault_rate mttr flap_link flap_period crash_switch loss
      duration_ms circuits ctx =
    let* () = check_link net "--flap-link" flap_link in
    let* () = check_switch net "--crash-switch" crash_switch in
    let* () =
      if fault_rate > 0.0 then
        check_at_least "churn --fault-rate" ~what:"switch-to-switch links" 1
          (List.length (switch_links (fst net.sample)))
      else Ok ()
    in
    let duration = Netsim.Time.ms duration_ms in
    let once ~obs seed =
      let g = graph net in
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
          partitions = ctx.partitions;
          domains = ctx.par_domains;
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
    Ok
      (run_seeds ctx ~once ~single:(print_result "")
        ~per_seed:(seed_block print_result)
        ~summary:(fun outs ->
          Format.printf
            "sweep of %d seeds: mean convergence %.2f ms, mean cells lost %.0f, \
             all drained %b@."
            ctx.sweep
            (mean_over outs (fun r -> r.Faults.Churn.convergence_mean_ms))
            (mean_over outs (fun r -> r.Faults.Churn.cells_lost))
            (List.for_all (fun r -> r.Faults.Churn.drained) outs)))
  in
  let doc =
    "Sustained fault injection and churn: flaps, crashes, control-loss \
     windows and random link faults against live monitors, skeptics, \
     reconfigurations and circuits."
  in
  Cmd.v (Cmd.info "churn" ~doc)
    Term.(
      term_result' ~usage:true
        (const run $ net_arg $ fault_rate_arg $ mttr_arg $ flap_link_arg
        $ flap_period_arg $ crash_switch_arg $ loss_arg $ duration_arg
        $ circuits_arg
        $ context ~seeding:Sweep ~partitions:true ()))

(* ------------------------------------------------------------------ *)
(* partition *)

let partition_cmd =
  let circuits_arg =
    opt_arg nonneg_int 12 "circuits" ~docv:"K"
      ~doc:"Best-effort circuits over random host pairs."
  in
  let split_arg =
    opt_arg nonneg_int 100 "split-ms" ~docv:"MS" ~doc:"When the separator is cut."
  in
  let heal_arg =
    opt_arg nonneg_int 400 "heal-ms" ~docv:"MS" ~doc:"When the cut links are restored."
  in
  let detect_arg =
    opt_arg nonneg_int 1 "detect-ms" ~docv:"MS"
      ~doc:"Failure/repair detection delay at the adjacent switches."
  in
  let extra_arg =
    opt_arg Arg.int 2 "extra-reconfigs" ~docv:"N"
      ~doc:"Additional reconfiguration rounds on the B side while split (drives its \
            epoch past A's)."
  in
  let one_sided_arg =
    flag_arg "one-sided"
      ~doc:"Only the low-epoch side detects the heal, so convergence requires the \
            stale-invite Reject path."
  in
  let pace_arg =
    opt_arg Arg.int 500 "pace-us" ~docv:"US"
      ~doc:"Gap between re-admissions after the heal (0 = naive storm)."
  in
  let run net circuits split_ms heal_ms detect_ms extra one_sided pace_us ctx =
    let* () =
      check_at_least "partition" ~what:"switches" 2
        (Topo.Graph.switch_count (fst net.sample))
    in
    let once ~obs seed =
      Faults.Partition.run ~obs ~graph:(graph net)
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
          partitions = ctx.partitions;
          domains = ctx.par_domains;
          seed;
        }
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
    Ok
      (run_seeds ctx ~once ~single:(print_result "")
        ~per_seed:(seed_block print_result)
        ~summary:(fun outs ->
          let all f = List.for_all f outs in
          Format.printf
            "sweep of %d seeds: healed %b, reconciled %b, mean heal %.2fms, \
             mean intra preserved %.3f, zero leaks %b, all drained %b@."
            ctx.sweep
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
            (all (fun r -> r.Faults.Partition.drained))))
  in
  let doc =
    "Partition-and-heal survivability: cut a separator, let both sides \
     reconfigure to divergent epochs while intra-side circuits keep \
     serving, then heal, reconcile tags, sweep orphans and re-admit dark \
     circuits with paced setups."
  in
  Cmd.v (Cmd.info "partition" ~doc)
    Term.(
      term_result' ~usage:true
        (const run $ net_arg $ circuits_arg $ split_arg
        $ heal_arg $ detect_arg $ extra_arg $ one_sided_arg $ pace_arg
        $ context ~seeding:Sweep ~partitions:true ()))

(* ------------------------------------------------------------------ *)
(* tps: control-plane saturation — offered circuit-setup rate vs the
   signaling/admission backlog, and the knee where it diverges. *)

let tps_cmd =
  let rate_arg =
    opt_arg Arg.float 0.0 "rate" ~docv:"R"
      ~doc:"Offered circuit-setup rate per simulated second. 0 searches for the knee \
            (highest sustained rate) instead."
  in
  let duration_arg =
    opt_arg positive_int 500 "duration-ms" ~docv:"MS"
      ~doc:"Offered-load interval in milliseconds; the run then drains."
  in
  let shards_arg =
    opt_arg positive_int 4 "shards" ~docv:"S"
      ~doc:"Admission shards (contiguous link-id ranges)."
  in
  let no_cache_arg =
    flag_arg "no-cache" ~doc:"Disable the version-keyed legal-path cache."
  in
  let no_batch_arg =
    flag_arg "no-batch" ~doc:"Write routing-table entries inline instead of batched."
  in
  let baseline_arg =
    flag_arg "baseline"
      ~doc:"Pre-PR control plane under the same cost model: one admission shard, no \
            path cache, unbatched table writes (overrides $(b,--shards), \
            $(b,--no-cache) and $(b,--no-batch))."
  in
  let run net rate duration_ms shards no_cache no_batch baseline ctx =
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
    let* () =
      check_at_least "tps" ~what:"hosts" 2 (Topo.Graph.host_count (fst net.sample))
    in
    if rate < 0.0 then Error (Printf.sprintf "--rate must be >= 0 (got %g)" rate)
    else if rate > 0.0 then
      Ok
        (run_seeds ctx
           ~once:(fun ~obs s ->
             Faults.Tps.run_point ~obs ~graph:(graph net) config
               (An2.Workload.scale (profile s) ~rate))
           ~single:(print_point "")
           ~per_seed:(seed_block print_point)
           ~summary:(fun outs ->
             Format.printf
               "sweep of %d seeds at %.0f/s: mean established %.1f, mean p99 \
                %.0fus, none diverged %b, all drained %b@."
               ctx.sweep rate
               (mean_over outs (fun p -> float_of_int p.Faults.Tps.established))
               (mean_over outs (fun p -> p.Faults.Tps.p99_us))
               (List.for_all (fun p -> not p.Faults.Tps.diverged) outs)
               (List.for_all (fun p -> p.Faults.Tps.drained) outs)))
    else if ctx.sweep > 0 then
      Error
        "--sweep needs an explicit --rate (knee search per seed would be a \
         bench, not a sweep)"
    else
      Ok
        (observe ctx (fun obs ->
             let knee, points =
               Faults.Tps.find_knee ~obs
                 ~mk_graph:(fun () -> graph net)
                 config (profile ctx.seed)
             in
             List.iter (print_point "") points;
             Format.printf "knee: %.0f setups/s sustained@." knee))
  in
  let doc =
    "Control-plane saturation: drive an open-loop workload of circuit \
     setups (Poisson base + diurnal ramp + heavy-tail bursts) through \
     signaling and sharded admission at $(b,--rate), or sweep the rate to \
     the knee where the setup backlog diverges."
  in
  Cmd.v (Cmd.info "tps" ~doc)
    Term.(
      term_result' ~usage:true
        (const run $ net_arg $ rate_arg $ duration_arg
        $ shards_arg $ no_cache_arg $ no_batch_arg $ baseline_arg
        $ context ~seeding:Sweep ()))

(* ------------------------------------------------------------------ *)
(* soak *)

let soak_cmd =
  let hours_arg =
    opt_arg Arg.float 0.0 "hours" ~docv:"H"
      ~doc:"Simulated lifetime in hours (fractions fine). 0 keeps the default 60 s \
            shakeout lifetime."
  in
  let every_arg =
    opt_arg positive_int 5000 "checkpoint-every" ~docv:"MS"
      ~doc:"Simulated milliseconds per checkpoint window."
  in
  let dir_arg =
    opt_arg (Arg.some Arg.string) None "dir" ~docv:"DIR"
      ~doc:"Store a snapshot per window ($(b,ckpt-N.snap), plus $(b,final.snap) at \
            completion) in $(docv); created if missing. Required for $(b,--resume) \
            round-trips and $(b,--bisect)."
  in
  let resume_arg =
    opt_arg (Arg.some Arg.string) None "resume" ~docv:"FILE"
      ~doc:"Restore every module from this checkpoint and continue; the continuation \
            is byte-identical to the uninterrupted run."
  in
  let stop_after_arg =
    opt_arg (Arg.some positive_int) None "stop-after" ~docv:"W"
      ~doc:"End the run after $(docv) completed windows — the \"kill\" half of a \
            resume-equality check."
  in
  let bisect_arg =
    flag_arg "bisect"
      ~doc:"On an audited violation, binary-search the stored checkpoints \
            (restore-and-audit probes) to the offending window and replay just that \
            window with tracing attached. Needs $(b,--dir)."
  in
  let audit_every_arg =
    opt_arg positive_int 4 "audit-every" ~docv:"N"
      ~doc:"Run the invariant audit at every Nth checkpoint."
  in
  let rate_arg =
    opt_arg Arg.float 200.0 "rate" ~docv:"R"
      ~doc:"Offered circuit-setup rate per simulated second."
  in
  let churn_arg =
    opt_arg nonneg_int 2 "churn" ~docv:"N"
      ~doc:"Link-failure injections per window (0 disables churn)."
  in
  let partition_every_arg =
    opt_arg nonneg_int 8 "partition-every" ~docv:"N"
      ~doc:"Separator cut-and-heal every Nth window (0 = never)."
  in
  let inject_at_arg =
    opt_arg (Arg.some Arg.float) None "inject-at" ~docv:"S"
      ~doc:"Plant a reservation leak at this simulated time (seconds) — the seeded \
            invariant violation the audit must catch."
  in
  let inject_link_arg =
    opt_arg Arg.int 0 "inject-link" ~docv:"L" ~doc:"Link the planted leak inflates."
  in
  let inject_cells_arg =
    opt_arg positive_int 3 "inject-cells" ~docv:"C"
      ~doc:"Cells the planted leak inflates the reservation by."
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
  let run net hours every_ms dir resume stop_after bisect
      audit_every rate churn partition_every inject_at inject_link
      inject_cells ctx =
    let cfg =
      {
        Faults.Soak.default_config with
        every = Netsim.Time.ms every_ms;
        total =
          (if hours > 0.0 then
             Netsim.Time.s (max 1 (int_of_float (hours *. 3600.0)))
           else Faults.Soak.default_config.total);
        rate;
        churn_per_window = churn;
        partition_every;
        audit_every;
        inject =
          (match inject_at with
          | Some at_s ->
            Some
              ( int_of_float (at_s *. 1e9) (* seconds -> Time.t ns *),
                inject_link,
                inject_cells )
          | None -> None);
        seed = ctx.seed;
      }
    in
    let mk_graph () =
      let g = graph net in
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
    let one_run_only =
      List.filter_map
        (fun (flag, set) -> if set then Some flag else None)
        [
          ("--dir", dir <> None); ("--resume", resume <> None);
          ("--stop-after", stop_after <> None); ("--bisect", bisect);
        ]
    in
    let* () =
      check_at_least "soak" ~what:"hosts" 2 (Topo.Graph.host_count (mk_graph ()))
    in
    if rate <= 0.0 then Error (Printf.sprintf "--rate must be > 0 (got %g)" rate)
    else if ctx.sweep > 0 && one_run_only <> [] then
      Error
        (Printf.sprintf "%s cannot be combined with --sweep (independent soaks)"
           (String.concat ", " one_run_only))
    else if bisect && dir = None then
      Error "--bisect needs --dir (stored checkpoints)"
    else begin
      (match dir with
       | Some d when not (Sys.file_exists d) -> Sys.mkdir d 0o755
       | _ -> ());
      (* A sweep runs independent soaks, one per seed, fanned over
         domains; --jobs does not change a byte of its output. A single
         run keeps its sink for the bisection replay. *)
      Ok
        (run_seeds ctx
           ~once:(fun ~obs s ->
             ( obs,
               Faults.Soak.run ~obs ?dir ?resume ?stop_after ~mk_graph
                 { cfg with Faults.Soak.seed = s } ))
           ~single:(fun (obs, (r : Faults.Soak.report)) ->
             print_report "" r;
             match (r.violation, dir) with
             | Some (detected, _), Some d when bisect ->
               let b = Faults.Soak.bisect ~obs ~dir:d cfg ~detected in
               Format.printf
                 "bisected to window %d (detected at %d) in %d probes + 1 \
                  traced window, %.2f s wall:@."
                 b.offending_window b.detected_window b.probes b.bisect_wall_s;
               List.iter (Format.printf "  %s@.") b.replay_violations
             | _ -> ())
           ~per_seed:(fun s (_, (r : Faults.Soak.report)) ->
             Format.printf
               "seed %d: %d windows, digest %08x, audits %d/%d clean, %d \
                arrivals, %d established, violation=%b@."
               s r.windows
               (r.final_digest land 0xFFFFFFFF)
               r.audits_clean r.audits_run r.arrivals r.established
               (r.violation <> None))
           ~summary:ignore)
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
      term_result' ~usage:true
        (const run $ net_arg $ hours_arg $ every_arg $ dir_arg
        $ resume_arg $ stop_after_arg $ bisect_arg $ audit_every_arg $ rate_arg
        $ churn_arg $ partition_every_arg $ inject_at_arg $ inject_link_arg
        $ inject_cells_arg $ context ~seeding:Sweep ()))

(* ------------------------------------------------------------------ *)
(* report: render a metrics / heartbeat / trace bundle produced by the
   other subcommands into a human-readable run summary. *)

let report_cmd =
  let input name ~doc = opt_arg (Arg.some Arg.file) None name ~docv:"FILE" ~doc in
  let metrics_in_arg =
    input "metrics" ~doc:"Metrics JSON written by a run's $(b,--metrics)."
  in
  let heartbeat_in_arg =
    input "heartbeat" ~doc:"Flight-recorder JSONL written by a run's $(b,--heartbeat)."
  in
  let trace_in_arg = input "trace" ~doc:"Chrome trace JSON written by a run's $(b,--trace)." in
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
  (* Each [report_*] reads everything it prints from its file's text
     up front, so a malformed file raises [Obs.Json.Bad] before any
     output, and returns the printer. *)
  let report_metrics text =
    let json = Obs.Json.parse text in
    let counters = counters_of json in
    let hists = Obs.Json.obj (Obs.Json.member "histograms" json) in
    fun () ->
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
      let hcount h =
        match Obs.Json.member_opt "count" h with
        | Some (Obs.Json.Num v) -> v
        | _ -> 0.0
      in
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
    let snapshots =
      List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)
      |> List.map Obs.Json.parse
    in
    let t j = Obs.Json.num (Obs.Json.member "t" j) in
    (* Every snapshot must carry its time, not only the two printed. *)
    List.iter (fun j -> ignore (t j : float)) snapshots;
    match snapshots with
    | [] -> fun () -> print_endline "heartbeat: empty recording"
    | jf :: _ ->
      let jl = List.nth snapshots (List.length snapshots - 1) in
      let label = Obs.Json.str (Obs.Json.member "label" jf) in
      let cf = counters_of (Obs.Json.member "metrics" jf)
      and cl = counters_of (Obs.Json.member "metrics" jl) in
      fun () ->
        Printf.printf "heartbeat: %d snapshots (label %S) from t=%.3f ms to t=%.3f ms\n"
          (List.length snapshots) label (t jf /. 1e6) (t jl /. 1e6);
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
  let report_trace text =
    let json = Obs.Json.parse text in
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
    fun () ->
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
      Error "pass at least one of --metrics, --heartbeat, --trace"
    else
      (* Load every file before printing anything. *)
      let load flag report = function
        | None -> Ok ignore
        | Some file -> (
          try Ok (report (read_file file)) with
          | Obs.Json.Bad msg ->
            Error (Printf.sprintf "--%s %s: malformed file (%s)" flag file msg)
          | Sys_error msg -> Error (Printf.sprintf "--%s %s: %s" flag file msg))
      in
      let* metrics = load "metrics" report_metrics metrics in
      let* heartbeat = load "heartbeat" report_heartbeat heartbeat in
      let* trace = load "trace" report_trace trace in
      Ok (metrics (); heartbeat (); trace ())
  in
  let doc =
    "Render a run's --metrics / --heartbeat / --trace files into a \
     human-readable summary (per-domain utilization, top instruments, \
     counter movement, causal-flow counts)."
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(
      term_result' ~usage:true
        (const run $ metrics_in_arg $ heartbeat_in_arg $ trace_in_arg))

(* ------------------------------------------------------------------ *)

let () =
  let doc = "simulators for the AN2 local area network (Owicki, PODC 1993)" in
  let info = Cmd.info "an2sim" ~version:"1.0.0" ~doc in
  (* Usage errors print their message on one line, however long. *)
  let err = Format.formatter_of_out_channel stderr in
  Format.pp_set_margin err max_int;
  exit
    (Cmd.eval ~err
       (Cmd.group info
          [
            topo_cmd; fabric_cmd; reconfig_cmd; local_reconfig_cmd; flow_cmd;
            deadlock_cmd; e2e_cmd; multicast_cmd; adaptive_cmd; signaling_cmd;
            rebalance_cmd; churn_cmd; partition_cmd; tps_cmd; soak_cmd;
            report_cmd;
          ]))
