(* The conservative-window cluster: mailbox order, lookahead
   validation, barrier-action semantics, the latency-aware
   partitioner, and — the sacred invariant — byte-identical dispatch
   at 1 vs N domains over random programs and random partitionings. *)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Mailbox *)

let test_mailbox_fifo () =
  let mb = Netsim.Mailbox.create () in
  let seen = ref [] in
  for i = 0 to 99 do
    Netsim.Mailbox.push mb ~at:(1000 - i) ~flow:i (fun () -> seen := i :: !seen)
  done;
  Alcotest.(check int) "length" 100 (Netsim.Mailbox.length mb);
  let order = ref [] in
  let flows = ref [] in
  Netsim.Mailbox.drain mb (fun ~at ~flow thunk ->
      order := at :: !order;
      flows := flow :: !flows;
      thunk ());
  Alcotest.(check (list int))
    "flow tags ride along in push order"
    (List.init 100 (fun i -> i))
    (List.rev !flows);
  Alcotest.(check int) "drained" 0 (Netsim.Mailbox.length mb);
  Alcotest.(check (list int))
    "drain replays pushes in push order"
    (List.init 100 (fun i -> 1000 - i))
    (List.rev !order);
  Alcotest.(check (list int))
    "thunks run in push order"
    (List.init 100 (fun i -> i))
    (List.rev !seen);
  (* Reusable after a drain. *)
  Netsim.Mailbox.push mb ~at:7 ~flow:0 (fun () -> ());
  Alcotest.(check int) "refill" 1 (Netsim.Mailbox.length mb)

(* ------------------------------------------------------------------ *)
(* Construction and send validation *)

let test_zero_lookahead_rejected () =
  Alcotest.check_raises "lookahead 0"
    (Invalid_argument "Cluster.create: lookahead must be positive")
    (fun () ->
      ignore (Netsim.Cluster.create ~parts:2 ~lookahead:0 ()));
  Alcotest.check_raises "negative lookahead"
    (Invalid_argument "Cluster.create: lookahead must be positive")
    (fun () ->
      ignore (Netsim.Cluster.create ~parts:2 ~lookahead:(-5) ()));
  Alcotest.check_raises "parts 0"
    (Invalid_argument "Cluster.create: parts must be >= 1")
    (fun () -> ignore (Netsim.Cluster.create ~parts:0 ~lookahead:10 ()))

let test_short_send_rejected () =
  let cl = Netsim.Cluster.create ~parts:2 ~lookahead:10 () in
  (* Same-partition sends may undercut the lookahead freely. *)
  Netsim.Cluster.send cl ~src:0 ~dst:0 ~delay:1 (fun () -> ());
  Alcotest.check_raises "cross send below lookahead"
    (Invalid_argument "Cluster.send: delay 9 below lookahead 10")
    (fun () -> Netsim.Cluster.send cl ~src:0 ~dst:1 ~delay:9 (fun () -> ()))

(* ------------------------------------------------------------------ *)
(* Barrier actions *)

let test_barrier_action_order () =
  let cl = Netsim.Cluster.create ~parts:2 ~lookahead:10 () in
  let log = ref [] in
  let push x = log := x :: !log in
  (* An engine event at the same time as an action: action first. *)
  Netsim.Engine.post_at (Netsim.Cluster.engine cl 0) ~at:50 (fun () ->
      push `Event_at_50);
  Netsim.Cluster.at_barrier cl ~at:50 (fun () -> push `Action_a);
  Netsim.Cluster.at_barrier cl ~at:50 (fun () -> push `Action_b);
  Netsim.Cluster.at_barrier cl ~at:20 (fun () -> push `Action_early);
  Netsim.Cluster.run cl ~horizon:100;
  Alcotest.(check bool)
    "actions run in time then registration order, before same-time events"
    true
    (List.rev !log = [ `Action_early; `Action_a; `Action_b; `Event_at_50 ]);
  Alcotest.(check int) "clock at horizon" 100
    (Netsim.Engine.now (Netsim.Cluster.engine cl 1))

let test_barrier_action_nested () =
  let cl = Netsim.Cluster.create ~parts:2 ~lookahead:10 () in
  let log = ref [] in
  let push x = log := x :: !log in
  Netsim.Engine.post_at (Netsim.Cluster.engine cl 0) ~at:50 (fun () ->
      push `Event_at_50);
  Netsim.Cluster.at_barrier cl ~at:50 (fun () ->
      push `Action;
      Netsim.Cluster.at_barrier cl ~at:50 (fun () -> push `Nested));
  Netsim.Cluster.run cl ~horizon:100;
  Alcotest.(check bool)
    "a same-instant action registered by an action runs in the same \
     barrier, before same-time events"
    true
    (List.rev !log = [ `Action; `Nested; `Event_at_50 ])

let test_barrier_action_late () =
  let cl = Netsim.Cluster.create ~parts:2 ~lookahead:10 () in
  let e0 = Netsim.Cluster.engine cl 0 in
  let log = ref [] in
  let push x = log := x :: !log in
  let log_at tag () = push (tag, Netsim.Engine.now e0) in
  Netsim.Engine.post_at e0 ~at:50 (log_at `Event);
  Netsim.Engine.post_at e0 ~at:150 (log_at `Event);
  (* Time 30 has passed when the action at 50 registers it. *)
  Netsim.Cluster.at_barrier cl ~at:50 (fun () ->
      log_at `Action ();
      Netsim.Cluster.at_barrier cl ~at:30 (log_at `Late));
  Netsim.Cluster.run cl ~horizon:100;
  (* Time 40 has passed when a second run starts at 100. *)
  Netsim.Cluster.at_barrier cl ~at:40 (log_at `Late);
  Netsim.Cluster.run cl ~horizon:200;
  Alcotest.(check bool)
    "a late action runs at the next barrier, before later events" true
    (List.rev !log
    = [ (`Action, 49); (`Late, 49); (`Event, 50); (`Late, 100); (`Event, 150) ])

let test_barrier_drained_max_horizon () =
  List.iter
    (fun parts ->
      let cl = Netsim.Cluster.create ~parts ~lookahead:10 () in
      let ran = ref false in
      Netsim.Engine.post_at (Netsim.Cluster.engine cl 0) ~at:5 (fun () ->
          ran := true);
      Netsim.Cluster.run cl ~horizon:max_int;
      Alcotest.(check bool) "event ran" true !ran;
      Alcotest.(check int)
        (Printf.sprintf "%d parts: clock at max_int" parts)
        max_int
        (Netsim.Engine.now (Netsim.Cluster.engine cl 0)))
    [ 1; 2 ]

let test_barrier_action_raises () =
  let cl = Netsim.Cluster.create ~parts:2 ~lookahead:10 () in
  let log = ref [] in
  let push x = log := x :: !log in
  Netsim.Engine.post_at (Netsim.Cluster.engine cl 1) ~at:10 (fun () ->
      push `Event_at_10);
  Netsim.Cluster.at_barrier cl ~at:20 (fun () -> failwith "action blew up");
  Netsim.Cluster.at_barrier cl ~at:20 (fun () -> push `Same_time_action);
  Netsim.Engine.post_at (Netsim.Cluster.engine cl 0) ~at:25 (fun () ->
      push `Event_at_25);
  Alcotest.check_raises "re-raised after the join"
    (Failure "action blew up") (fun () ->
      Netsim.Cluster.run ~domains:2 cl ~horizon:100);
  Alcotest.(check bool) "nothing runs after the failing action" true
    (List.rev !log = [ `Event_at_10 ])

(* ------------------------------------------------------------------ *)
(* Differential: 1 domain vs N domains, byte-identical dispatch *)

(* A self-propagating deterministic workload: each event logs
   (tag, now) on its partition and, driven purely by arithmetic on its
   tag, schedules a local child and/or sends a cross-partition child
   to the next partition. All state an event touches is owned by its
   partition, so the program is exactly the kind of simulation the
   cluster promises to run identically at any domain count. *)
let run_program ?sinks ~parts ~lookahead ~domains ~horizon inits =
  let cl = Netsim.Cluster.create ?sinks ~parts ~lookahead () in
  let logs = Array.make parts [] in
  let rec event p fuel tag () =
    logs.(p) <- (tag, Netsim.Engine.now (Netsim.Cluster.engine cl p)) :: logs.(p);
    if fuel > 0 then begin
      if tag mod 4 < 3 then
        Netsim.Engine.post
          (Netsim.Cluster.engine cl p)
          ~delay:(tag mod 7)
          (event p (fuel - 1) ((tag * 31) + 1));
      if tag mod 3 = 0 then begin
        let dst = (p + 1) mod parts in
        Netsim.Cluster.send cl ~src:p ~dst
          ~delay:(lookahead + (tag mod 11))
          (event dst (fuel - 1) ((tag * 17) + 3))
      end
    end
  in
  List.iter
    (fun (p, at, fuel, tag) ->
      let p = p mod parts and tag = abs tag in
      Netsim.Engine.post_at
        (Netsim.Cluster.engine cl p)
        ~at (event p fuel tag))
    inits;
  Netsim.Cluster.run ~domains cl ~horizon;
  ( Array.map List.rev logs,
    Array.init parts (fun p ->
        Netsim.Engine.dispatched (Netsim.Cluster.engine cl p)) )

let program_gen =
  QCheck.(
    list_of_size (Gen.int_range 1 25)
      (quad (int_range 0 5) (int_range 0 60) (int_range 0 4) small_nat))

let test_cluster_differential =
  qtest ~count:60 "random program: identical dispatch at 1 vs N domains"
    program_gen
    (fun inits ->
      let parts = 3 and lookahead = 10 and horizon = 400 in
      let base = run_program ~parts ~lookahead ~domains:1 ~horizon inits in
      List.for_all
        (fun domains ->
          run_program ~parts ~lookahead ~domains ~horizon inits = base)
        [ 2; 3; 4 ])

let test_cluster_differential_partitions =
  qtest ~count:40 "random partition counts keep the 1-vs-N invariant"
    QCheck.(pair (int_range 1 6) program_gen)
    (fun (parts, inits) ->
      let lookahead = 7 and horizon = 300 in
      let base = run_program ~parts ~lookahead ~domains:1 ~horizon inits in
      run_program ~parts ~lookahead ~domains:parts ~horizon inits = base)

(* More domains than cores: the cluster runs one worker per core, and
   dispatch is still that of one domain. The window profiler records
   the worker count the run used. *)
let test_cluster_domains_capped () =
  let cores = Domain.recommended_domain_count () in
  let parts = cores + 1 and lookahead = 10 and horizon = 400 in
  let inits =
    List.init (2 * parts) (fun i -> (i, 3 * i, 4, (7 * i) + 3))
  in
  let base = run_program ~parts ~lookahead ~domains:1 ~horizon inits in
  let sinks = Array.init parts (fun _ -> Obs.Sink.create ()) in
  let capped =
    run_program ~sinks ~parts ~lookahead ~domains:(cores + 1) ~horizon inits
  in
  Alcotest.(check bool) "same dispatch as one domain" true (capped = base);
  let workers =
    Obs.Metrics.Counter.value
      (Obs.Metrics.counter (Obs.Sink.metrics sinks.(0)) "parprof.workers")
  in
  Alcotest.(check int) "one worker per core" cores workers

(* A one-part cluster is the single-engine simulator: the same random
   programs, plus barrier actions at the same instants as events, must
   dispatch exactly as on a plain engine with the actions posted first
   (ahead of every setup event), and end on the same clock. Actions log
   their own instant (a barrier action sees the engine caught up to
   just before it) and post a follow-up event, so their effects are
   ordered too. *)
let run_one_part ~on_cluster ~horizon (inits, actions) =
  let log = ref [] in
  let engine, at_action, run =
    if on_cluster then begin
      let cl = Netsim.Cluster.create ~parts:1 ~lookahead:0 () in
      ( Netsim.Cluster.engine cl 0,
        (fun ~at f -> Netsim.Cluster.at_barrier cl ~at f),
        fun () -> Netsim.Cluster.run cl ~horizon )
    end
    else begin
      let e = Netsim.Engine.create () in
      ( e,
        (fun ~at f -> Netsim.Engine.post_at e ~at f),
        fun () -> Netsim.Engine.run_until e horizon )
    end
  in
  let rec event fuel tag () =
    log := (tag, Netsim.Engine.now engine) :: !log;
    if fuel > 0 then begin
      if tag mod 4 < 3 then
        Netsim.Engine.post engine ~delay:(tag mod 7)
          (event (fuel - 1) ((tag * 31) + 1));
      if tag mod 3 = 0 then
        Netsim.Engine.post engine ~delay:(tag mod 11)
          (event (fuel - 1) ((tag * 17) + 3))
    end
  in
  List.iteri
    (fun i at ->
      at_action ~at (fun () ->
          log := (-1 - i, at) :: !log;
          Netsim.Engine.post_at engine ~at:(at + (i mod 3)) (event 1 (i * 13))))
    actions;
  List.iter
    (fun (at, fuel, tag) -> Netsim.Engine.post_at engine ~at (event fuel tag))
    inits;
  run ();
  (List.rev !log, Netsim.Engine.now engine)

let test_one_part_is_plain_engine =
  qtest ~count:200 "one-part cluster dispatches like a plain engine"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 25)
           (triple (int_range 0 60) (int_range 0 4) small_nat))
        (list_of_size (Gen.int_range 0 8) (int_range 0 80)))
    (fun (inits, extra) ->
      (* Half the actions share an instant with an initial event. *)
      let actions =
        List.filteri (fun i _ -> i mod 2 = 0) (List.map (fun (at, _, _) -> at) inits)
        @ extra
      in
      let horizon = 200 in
      run_one_part ~on_cluster:true ~horizon (inits, actions)
      = run_one_part ~on_cluster:false ~horizon (inits, actions))

let test_cluster_exception_propagates () =
  let cl = Netsim.Cluster.create ~parts:2 ~lookahead:5 () in
  Netsim.Engine.post_at (Netsim.Cluster.engine cl 1) ~at:10 (fun () ->
      failwith "window event blew up");
  Alcotest.check_raises "exception crosses the join"
    (Failure "window event blew up") (fun () ->
      Netsim.Cluster.run ~domains:2 cl ~horizon:100)

(* ------------------------------------------------------------------ *)
(* The reconfiguration runner on a cluster *)

(* A full protocol run — lossy control plane, mid-run failure and
   restore — must produce the identical outcome at every domain count
   once the partition count is fixed. *)
let reconfig_outcome ~partitions ~domains =
  let g = Topo.Build.src_lan () in
  let params =
    {
      Reconfig.Runner.default_params with
      control_loss = 0.15;
      seed = 42;
      horizon = Netsim.Time.s 2;
    }
  in
  Reconfig.Runner.run ~params ~partitions ~domains g
    ~events:
      [
        (Netsim.Time.ms 40, `Fail_link 3);
        (Netsim.Time.ms 400, `Restore_link 3);
      ]
    ~triggers:[ (Netsim.Time.ms 1, 2); (Netsim.Time.ms 1, 3) ]

let test_runner_cluster_deterministic () =
  List.iter
    (fun partitions ->
      let base = reconfig_outcome ~partitions ~domains:1 in
      Alcotest.(check bool)
        (Printf.sprintf "partitions %d converges" partitions)
        true base.Reconfig.Runner.converged;
      List.iter
        (fun domains ->
          Alcotest.(check bool)
            (Printf.sprintf "P=%d identical at %d domains" partitions domains)
            true
            (reconfig_outcome ~partitions ~domains = base))
        [ 2; 3; 4 ])
    [ 2; 4 ]

let test_runner_cluster_obs_merged () =
  let g = Topo.Build.src_lan () in
  let obs = Obs.Sink.create () in
  let outcome =
    Reconfig.Runner.run ~obs ~partitions:4 ~domains:4 g
      ~triggers:[ (Netsim.Time.ms 1, 0) ]
  in
  Alcotest.(check bool) "converged" true outcome.Reconfig.Runner.converged;
  let delivered =
    Obs.Metrics.Counter.value
      (Obs.Sink.counter obs "reconfig.messages")
  in
  Alcotest.(check int)
    "merged per-partition message counters match the outcome"
    outcome.Reconfig.Runner.messages delivered

(* The one-partition twin: the run feeds the caller's sink directly,
   so the counter matches with nothing merged, and the window profiler
   stays off. *)
let test_runner_one_part_obs () =
  let g = Topo.Build.src_lan () in
  let obs = Obs.Sink.create () in
  let outcome = Reconfig.Runner.run ~obs g ~triggers:[ (Netsim.Time.ms 1, 0) ] in
  Alcotest.(check bool) "converged" true outcome.Reconfig.Runner.converged;
  Alcotest.(check int) "message counter matches the outcome"
    outcome.Reconfig.Runner.messages
    (Obs.Metrics.Counter.value (Obs.Sink.counter obs "reconfig.messages"));
  let json = Obs.Metrics.to_json_string (Obs.Sink.metrics obs) in
  let has sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length json && (String.sub json i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "registry names the messages" true
    (has "\"reconfig.messages\"");
  Alcotest.(check bool) "no parprof series" false (has "\"parprof.")

let test_runner_validates_parallelism () =
  let g = Topo.Build.linear 4 in
  Alcotest.check_raises "partitions 0"
    (Invalid_argument "Runner.run: partitions must be >= 1") (fun () ->
      ignore
        (Reconfig.Runner.run ~partitions:0 g ~triggers:[ (0, 0) ]));
  Alcotest.check_raises "domains 0"
    (Invalid_argument "Runner.run: domains must be >= 1") (fun () ->
      ignore (Reconfig.Runner.run ~domains:0 g ~triggers:[ (0, 0) ]))

(* ------------------------------------------------------------------ *)
(* Churn with partitioned nested reconfigurations *)

(* The outer churn timeline stays on one engine; each nested
   reconfiguration round runs on a cluster. Fixed partitions, any
   domain count: identical result. *)
let churn_result ~partitions ~domains =
  let ms = Netsim.Time.ms and s = Netsim.Time.s in
  Faults.Churn.run ~graph:(Topo.Build.ring 6)
    {
      Faults.Churn.schedule =
        [
          Faults.Schedule.Flap
            {
              link = 0;
              start = ms 100;
              until = s 1;
              down_for = ms 150;
              up_for = ms 150;
            };
          Faults.Schedule.Control_loss_window
            { from_ = ms 200; until = ms 800; loss = 0.1 };
        ];
      duration = s 2;
      circuits = 4;
      partitions;
      domains;
      seed = 42;
    }

let test_churn_cluster_deterministic () =
  let base = churn_result ~partitions:2 ~domains:1 in
  Alcotest.(check bool) "reconfigurations ran" true
    (base.Faults.Churn.reconfigs > 0);
  Alcotest.(check bool) "at least one converged" true
    (base.Faults.Churn.reconfigs_converged > 0);
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "identical at %d domains" domains)
        true
        (churn_result ~partitions:2 ~domains = base))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* The end-to-end data plane on a cluster *)

(* Mixed traffic (guaranteed CBR, saturated, paced, packet sources)
   across a 3x3 torus split four ways: the full per-vc statistics must
   be identical at every domain count for a fixed partition count. *)
let netrun_world () =
  let g = Topo.Build.torus 3 3 in
  let hosts =
    List.map
      (fun s ->
        let h = Topo.Graph.add_host g in
        ignore (Topo.Graph.connect g (Topo.Graph.Host h) (Topo.Graph.Switch s));
        h)
      [ 0; 4; 8; 2 ]
  in
  let net = An2.Network.create ~frame:32 g in
  let bwc = An2.Bandwidth_central.create net in
  let h = Array.of_list hosts in
  let be a b =
    match An2.Network.setup_best_effort net ~src_host:h.(a) ~dst_host:h.(b) with
    | Ok vc -> vc
    | Error e -> failwith e
  in
  let gv a b =
    match
      An2.Bandwidth_central.request bwc ~src_host:h.(a) ~dst_host:h.(b)
        ~cells:4
    with
    | Ok vc -> vc
    | Error _ -> failwith "admission failed"
  in
  ( net,
    [
      An2.Netrun.Cbr (gv 0 2);
      An2.Netrun.Saturated_be (be 1 3);
      An2.Netrun.Paced_be (be 0 1, 0.5);
      An2.Netrun.Packets_be (be 2 0, 0.4, 1500);
    ] )

let netrun_result ~partitions ~domains =
  let net, sources = netrun_world () in
  An2.Netrun.run ~partitions ~domains net
    { An2.Netrun.default_params with seed = 7 }
    ~sources ~duration:(Netsim.Time.ms 2) ()

let test_netrun_cluster_deterministic () =
  let base = netrun_result ~partitions:4 ~domains:1 in
  List.iter
    (fun (_, (s : An2.Netrun.vc_stats)) ->
      Alcotest.(check bool) "traffic flowed" true (s.delivered > 0))
    base.An2.Netrun.per_vc;
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "identical at %d domains" domains)
        true
        (netrun_result ~partitions:4 ~domains = base))
    [ 2; 3; 4 ]

let test_netrun_validates_parallelism () =
  let net, sources = netrun_world () in
  Alcotest.check_raises "partitions 0"
    (Invalid_argument "Netrun.run: partitions must be >= 1") (fun () ->
      ignore
        (An2.Netrun.run ~partitions:0 net An2.Netrun.default_params ~sources
           ~duration:1000 ()));
  Alcotest.check_raises "domains 0"
    (Invalid_argument "Netrun.run: domains must be >= 1") (fun () ->
      ignore
        (An2.Netrun.run ~domains:0 net An2.Netrun.default_params ~sources
           ~duration:1000 ()));
  Alcotest.check_raises "events need one partition"
    (Invalid_argument "Netrun.run: events require partitions = 1") (fun () ->
      ignore
        (An2.Netrun.run ~partitions:2 net An2.Netrun.default_params ~sources
           ~events:[ (500, An2.Netrun.Reroute_be) ]
           ~duration:1000 ()))

(* ------------------------------------------------------------------ *)
(* Partitioner *)

let test_partition_balanced_total () =
  let g = Topo.Build.torus 6 6 in
  let part = Topo.Partition.assign g ~parts:4 in
  Alcotest.(check int) "covers every switch" 36 (Array.length part);
  let size = Array.make 4 0 in
  Array.iter
    (fun p ->
      Alcotest.(check bool) "in range" true (p >= 0 && p < 4);
      size.(p) <- size.(p) + 1)
    part;
  Array.iter
    (fun s ->
      Alcotest.(check bool) "non-empty" true (s > 0);
      Alcotest.(check bool) "within cap" true (s <= 9))
    size;
  Alcotest.(check bool) "deterministic" true
    (part = Topo.Partition.assign g ~parts:4)

let test_partition_clamps_to_switches () =
  let g = Topo.Build.linear 3 in
  let part = Topo.Partition.assign g ~parts:8 in
  Alcotest.(check bool) "at most n parts" true
    (Array.for_all (fun p -> p < 3) part)

let test_partition_lookahead () =
  let g = Topo.Graph.create () in
  Topo.Graph.add_switches g 4;
  let _ =
    Topo.Graph.connect ~latency:3 g (Topo.Graph.Switch 0) (Topo.Graph.Switch 1)
  in
  let slow =
    Topo.Graph.connect ~latency:40 g (Topo.Graph.Switch 1)
      (Topo.Graph.Switch 2)
  in
  let _ =
    Topo.Graph.connect ~latency:5 g (Topo.Graph.Switch 2) (Topo.Graph.Switch 3)
  in
  let part = [| 0; 0; 1; 1 |] in
  Alcotest.(check (option int))
    "min cross latency" (Some 40)
    (Topo.Partition.lookahead g part);
  (* Dead links still count: a restore must not shrink the window. *)
  Topo.Graph.fail_link g slow;
  Alcotest.(check (option int))
    "dead cross link still counts" (Some 40)
    (Topo.Partition.lookahead g part);
  Alcotest.(check (option int))
    "single partition has no cut" None
    (Topo.Partition.lookahead g [| 0; 0; 0; 0 |])

let test_partition_prefers_slow_cut () =
  (* Two 3-switch cliques-ish fast islands joined by one slow bridge:
     the 2-way partition must cut the bridge, making the lookahead the
     bridge latency. *)
  let g = Topo.Graph.create () in
  Topo.Graph.add_switches g 6;
  let fast a b =
    ignore
      (Topo.Graph.connect ~latency:2 g (Topo.Graph.Switch a)
         (Topo.Graph.Switch b))
  in
  fast 0 1;
  fast 1 2;
  fast 0 2;
  fast 3 4;
  fast 4 5;
  fast 3 5;
  let _ =
    Topo.Graph.connect ~latency:100 g (Topo.Graph.Switch 2)
      (Topo.Graph.Switch 3)
  in
  let part = Topo.Partition.assign g ~parts:2 in
  Alcotest.(check (option int))
    "cuts the slow bridge" (Some 100)
    (Topo.Partition.lookahead g part)

(* ------------------------------------------------------------------ *)
(* Sweep exception propagation (the run_jobs fix) *)

let test_sweep_spawned_job_exception () =
  Alcotest.check_raises "failure from a parallel job re-raised"
    (Failure "job 5 exploded") (fun () ->
      ignore
        (Netsim.Sweep.map ~domains:3 ~seeds:(List.init 8 Fun.id) (fun s ->
             if s = 5 then failwith "job 5 exploded";
             s * 2)))

let () =
  Alcotest.run "cluster"
    [
      ( "mailbox",
        [ Alcotest.test_case "fifo drain" `Quick test_mailbox_fifo ] );
      ( "validation",
        [
          Alcotest.test_case "zero lookahead" `Quick
            test_zero_lookahead_rejected;
          Alcotest.test_case "short cross send" `Quick
            test_short_send_rejected;
        ] );
      ( "barrier",
        [
          Alcotest.test_case "action order" `Quick test_barrier_action_order;
          Alcotest.test_case "nested same-instant action" `Quick
            test_barrier_action_nested;
          Alcotest.test_case "late action" `Quick test_barrier_action_late;
          Alcotest.test_case "drained engines, max_int horizon" `Quick
            test_barrier_drained_max_horizon;
          Alcotest.test_case "raising action poisons the run" `Quick
            test_barrier_action_raises;
          Alcotest.test_case "exception propagates" `Quick
            test_cluster_exception_propagates;
        ] );
      ("one part", [ test_one_part_is_plain_engine ]);
      ( "differential",
        [
          test_cluster_differential;
          test_cluster_differential_partitions;
          Alcotest.test_case "domains capped at the cores" `Quick
            test_cluster_domains_capped;
        ] );
      ( "runner",
        [
          Alcotest.test_case "outcome identical across domains" `Quick
            test_runner_cluster_deterministic;
          Alcotest.test_case "obs merged" `Quick test_runner_cluster_obs_merged;
          Alcotest.test_case "one-part obs" `Quick test_runner_one_part_obs;
          Alcotest.test_case "validates parallelism" `Quick
            test_runner_validates_parallelism;
        ] );
      ( "churn",
        [
          Alcotest.test_case "result identical across domains" `Quick
            test_churn_cluster_deterministic;
        ] );
      ( "netrun",
        [
          Alcotest.test_case "stats identical across domains" `Quick
            test_netrun_cluster_deterministic;
          Alcotest.test_case "validates parallelism" `Quick
            test_netrun_validates_parallelism;
        ] );
      ( "partitioner",
        [
          Alcotest.test_case "balanced and total" `Quick
            test_partition_balanced_total;
          Alcotest.test_case "clamps parts" `Quick
            test_partition_clamps_to_switches;
          Alcotest.test_case "lookahead" `Quick test_partition_lookahead;
          Alcotest.test_case "slow cut" `Quick test_partition_prefers_slow_cut;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "spawned job exception" `Quick
            test_sweep_spawned_job_exception;
        ] );
    ]
