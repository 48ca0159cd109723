(* Tests for the distributed reconfiguration protocol, the skeptic, and
   the ping monitor. *)

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Tags *)

let test_tag_ordering () =
  let t12 = { Reconfig.Tag.epoch = 1; initiator = 2 } in
  let t13 = { Reconfig.Tag.epoch = 1; initiator = 3 } in
  let t20 = { Reconfig.Tag.epoch = 2; initiator = 0 } in
  Alcotest.(check bool) "epoch dominates" true Reconfig.Tag.(t20 > t13);
  Alcotest.(check bool) "id breaks ties" true Reconfig.Tag.(t13 > t12);
  Alcotest.(check bool) "zero smallest" true Reconfig.Tag.(t12 > Reconfig.Tag.zero);
  Alcotest.(check bool) "equal" true (Reconfig.Tag.equal t12 t12);
  Alcotest.(check bool) "not equal" false (Reconfig.Tag.equal t12 t13)

let test_tag_next () =
  let t = Reconfig.Tag.next { Reconfig.Tag.epoch = 4; initiator = 9 } ~initiator:2 in
  Alcotest.(check int) "epoch bumped" 5 t.Reconfig.Tag.epoch;
  Alcotest.(check int) "initiator set" 2 t.Reconfig.Tag.initiator

let tag_gen =
  QCheck.Gen.(
    map2
      (fun epoch initiator -> { Reconfig.Tag.epoch; initiator })
      (int_range 0 1000) (int_range 0 63))

let tag_next_strictly_greater =
  qtest ~count:200 "next strictly greater"
    (QCheck.make QCheck.Gen.(pair tag_gen (int_range 0 63)))
    (fun (t, initiator) -> Reconfig.Tag.(next t ~initiator > t))

let tag_compare_total_order =
  qtest ~count:500 "compare is a total order"
    (QCheck.make QCheck.Gen.(triple tag_gen tag_gen tag_gen))
    (fun (a, b, c) ->
      let sign x = compare x 0 in
      let antisym =
        sign (Reconfig.Tag.compare a b) = -sign (Reconfig.Tag.compare b a)
      in
      let eq_consistent =
        (Reconfig.Tag.compare a b = 0) = Reconfig.Tag.equal a b
      in
      let trans =
        (not
           (Reconfig.Tag.compare a b <= 0 && Reconfig.Tag.compare b c <= 0))
        || Reconfig.Tag.compare a c <= 0
      in
      antisym && eq_consistent && trans)

(* ------------------------------------------------------------------ *)
(* Proto unit tests (no engine: hand-driven actions) *)

let test_proto_isolated_node () =
  let n = Reconfig.Proto.create_node ~id:7 in
  let env =
    { Reconfig.Proto.neighbors = (fun () -> [||]); local_edges = (fun () -> [| 5 |]) }
  in
  let actions = Reconfig.Proto.initiate n env in
  (match actions with
   | [ Reconfig.Proto.Completed tag ] ->
     Alcotest.(check int) "own epoch" 1 tag.Reconfig.Tag.epoch
   | _ -> Alcotest.fail "expected immediate completion");
  match Reconfig.Proto.completed n with
  | Some (_, [| 5 |]) -> ()
  | _ -> Alcotest.fail "topology should be the host link"

let test_proto_two_nodes_by_hand () =
  (* Drive a two-switch reconfiguration manually: both switches see
     link 0 between them, and b also a host attachment, link 4. *)
  let a = Reconfig.Proto.create_node ~id:0 in
  let b = Reconfig.Proto.create_node ~id:1 in
  let env_a =
    { Reconfig.Proto.neighbors = (fun () -> [| 1 |]);
      local_edges = (fun () -> [| 0 |]) }
  in
  let env_b =
    { Reconfig.Proto.neighbors = (fun () -> [| 0 |]);
      local_edges = (fun () -> [| 0; 4 |]) }
  in
  (* a initiates -> invite to b *)
  let acts = Reconfig.Proto.initiate a env_a in
  let invite =
    match acts with
    | [ Reconfig.Proto.Send { dst = 1; msg } ] -> msg
    | _ -> Alcotest.fail "expected one invite"
  in
  (* b joins and, with no other neighbors, reports immediately *)
  let acts_b = Reconfig.Proto.handle b env_b ~from:0 invite in
  let ack, report =
    match acts_b with
    | [ Reconfig.Proto.Send { dst = 0; msg = ack };
        Reconfig.Proto.Send { dst = 0; msg = report } ] -> (ack, report)
    | _ -> Alcotest.fail "expected ack then report"
  in
  (match report with
   | Reconfig.Proto.Report (_, edges, reported) ->
     Alcotest.(check (array int)) "b's links" [| 0; 4 |] edges;
     Alcotest.(check int) "b's reported count" 2 reported
   | _ -> Alcotest.fail "expected a report");
  (* a processes the ack (b becomes child), then the report, which
     finishes collection and starts distribution. *)
  ignore (Reconfig.Proto.handle a env_a ~from:1 ack);
  let acts_a = Reconfig.Proto.handle a env_a ~from:1 report in
  let dist =
    match acts_a with
    | [ Reconfig.Proto.Send { dst = 1; msg }; Reconfig.Proto.Completed _ ] -> msg
    | _ -> Alcotest.fail "expected distribute + completion"
  in
  let acts_b2 = Reconfig.Proto.handle b env_b ~from:0 dist in
  (match acts_b2 with
   | [ Reconfig.Proto.Completed _ ] -> ()
   | _ -> Alcotest.fail "b should complete");
  match (Reconfig.Proto.completed a, Reconfig.Proto.completed b) with
  | Some (ta, topo_a), Some (tb, topo_b) ->
    Alcotest.(check bool) "same tag" true (Reconfig.Tag.equal ta tb);
    Alcotest.(check bool) "same topology" true (topo_a = topo_b);
    Alcotest.(check (array int)) "both links, once each" [| 0; 4 |] topo_a
  | _ -> Alcotest.fail "both must complete"

let test_proto_stale_invite_rejected () =
  let n = Reconfig.Proto.create_node ~id:3 in
  let env =
    { Reconfig.Proto.neighbors = (fun () -> [| 0 |]); local_edges = (fun () -> [||]) }
  in
  (* Join epoch 5 first. *)
  ignore
    (Reconfig.Proto.handle n env ~from:0
       (Reconfig.Proto.Invite { Reconfig.Tag.epoch = 5; initiator = 0 }));
  (* A stale epoch-2 invite is answered with Reject carrying both the
     stale tag and the newer one, so a healed-away initiator learns
     what it must exceed instead of hanging on silence. *)
  let stale = { Reconfig.Tag.epoch = 2; initiator = 9 } in
  (let acts =
     Reconfig.Proto.handle n env ~from:9 (Reconfig.Proto.Invite stale)
   in
   match acts with
   | [ Reconfig.Proto.Send
         { dst = 9; msg = Reconfig.Proto.Reject (s, newer) } ] ->
     Alcotest.(check bool) "stale tag echoed" true (Reconfig.Tag.equal s stale);
     Alcotest.(check int) "newer epoch" 5 newer.Reconfig.Tag.epoch
   | _ -> Alcotest.fail "expected a reject");
  (* An equal-tag invite is declined. *)
  let acts2 =
    Reconfig.Proto.handle n env ~from:0
      (Reconfig.Proto.Invite { Reconfig.Tag.epoch = 5; initiator = 0 })
  in
  match acts2 with
  | [ Reconfig.Proto.Send { msg = Reconfig.Proto.Ack (_, false); _ } ] -> ()
  | _ -> Alcotest.fail "expected decline"

let test_proto_reject_reinitiates () =
  (* The rejected initiator restarts above the newer tag — but only if
     the reject still refers to its current attempt. *)
  let n = Reconfig.Proto.create_node ~id:2 in
  let env =
    { Reconfig.Proto.neighbors = (fun () -> [| 0; 1 |]);
      local_edges = (fun () -> [||]) }
  in
  let mine =
    match Reconfig.Proto.initiate n env with
    | Reconfig.Proto.Send { msg = Reconfig.Proto.Invite t; _ } :: _ -> t
    | _ -> Alcotest.fail "expected invites"
  in
  let newer = { Reconfig.Tag.epoch = 7; initiator = 0 } in
  (match
     Reconfig.Proto.handle n env ~from:0 (Reconfig.Proto.Reject (mine, newer))
   with
  | Reconfig.Proto.Send { msg = Reconfig.Proto.Invite t; _ } :: _ ->
    Alcotest.(check bool) "restarted above the newer tag" true
      Reconfig.Tag.(t > newer);
    Alcotest.(check int) "own id as initiator" 2 t.Reconfig.Tag.initiator
  | _ -> Alcotest.fail "expected a re-initiation");
  (* A reject for a superseded attempt is a no-op: the node moved on. *)
  let acts =
    Reconfig.Proto.handle n env ~from:1 (Reconfig.Proto.Reject (mine, newer))
  in
  Alcotest.(check int) "stale reject dropped" 0 (List.length acts)

let sorted_int_array =
  QCheck.map
    (fun l -> Array.of_list (List.sort_uniq compare l))
    QCheck.(small_list (int_range 0 40))

let union_is_sorted_concat =
  qtest ~count:500 "union = sort_uniq of the concatenation"
    (QCheck.pair sorted_int_array sorted_int_array)
    (fun (a, b) ->
      Reconfig.Proto.union a b
      = Array.of_list
          (List.sort_uniq compare (Array.to_list a @ Array.to_list b)))

(* ------------------------------------------------------------------ *)
(* Runner *)

let check_outcome name (o : Reconfig.Runner.outcome) =
  Alcotest.(check bool) (name ^ " converged") true o.converged;
  Alcotest.(check bool) (name ^ " agreement") true o.agreement;
  Alcotest.(check bool) (name ^ " correct topology") true o.topology_correct;
  Alcotest.(check bool) (name ^ " messages flowed") true (o.messages > 0)

let test_runner_basic_topologies () =
  List.iter
    (fun (name, g) ->
      let o = Reconfig.Runner.run g ~triggers:[ (0, 0) ] in
      check_outcome name o)
    [
      ("linear", Topo.Build.linear 6);
      ("ring", Topo.Build.ring 7);
      ("star", Topo.Build.star 5);
      ("grid", Topo.Build.grid 3 3);
      ("src_lan", Topo.Build.src_lan ());
    ]

let test_runner_single_switch () =
  let g = Topo.Build.linear 1 in
  let o = Reconfig.Runner.run g ~triggers:[ (0, 0) ] in
  Alcotest.(check bool) "lone switch converges" true o.converged

let test_runner_phases () =
  let g = Topo.Build.linear 6 in
  let o = Reconfig.Runner.run g ~triggers:[ (0, 0) ] in
  Alcotest.(check bool) "phases positive" true
    (o.phase_propagation > 0 && o.phase_collection > 0
     && o.phase_distribution > 0);
  Alcotest.(check int) "phases sum to elapsed" o.elapsed
    (o.phase_propagation + o.phase_collection + o.phase_distribution);
  (* On a chain rooted at one end, each phase is one pass down or up:
     collection and distribution each traverse the 5 links back. *)
  Alcotest.(check bool) "collection ~ distribution" true
    (abs (o.phase_collection - o.phase_distribution)
     <= Netsim.Time.us 120)

let test_runner_linear_tree_is_deep () =
  (* On a chain the propagation-order tree is forced to be the chain
     itself: depth = n-1 (the paper's worst case). *)
  let g = Topo.Build.linear 8 in
  let o = Reconfig.Runner.run g ~triggers:[ (0, 0) ] in
  Alcotest.(check int) "depth 7" 7 o.tree_depth;
  Alcotest.(check int) "bfs same" 7 o.bfs_depth

let test_runner_tree_depth_dominates_bfs =
  qtest "propagation tree >= BFS depth" (QCheck.make QCheck.Gen.(int_range 0 5000))
    (fun seed ->
      let rng = Netsim.Rng.create seed in
      let g = Topo.Build.random_connected ~rng ~switches:12 ~extra_links:8 in
      let o = Reconfig.Runner.run g ~triggers:[ (0, Netsim.Rng.int rng 12) ] in
      o.converged && o.tree_depth >= o.bfs_depth)

let test_runner_includes_hosts_in_topology () =
  let g = Topo.Build.src_lan () in
  let o = Reconfig.Runner.run g ~triggers:[ (0, 2) ] in
  (* topology_correct compares against the true topology including
     host attachments, so success implies hosts were collected. *)
  check_outcome "src_lan with hosts" o

let test_runner_overlapping =
  qtest ~count:40 "overlapping reconfigurations agree"
    (QCheck.make
       ~print:(fun (a, b, c) -> Printf.sprintf "%d %d %d" a b c)
       QCheck.Gen.(triple (int_range 0 3000) (int_range 0 100) (int_range 0 100)))
    (fun (seed, d1, d2) ->
      let rng = Netsim.Rng.create seed in
      let g = Topo.Build.random_connected ~rng ~switches:10 ~extra_links:6 in
      let s1 = Netsim.Rng.int rng 10 and s2 = Netsim.Rng.int rng 10 in
      let o =
        Reconfig.Runner.run g
          ~triggers:[ (Netsim.Time.us d1, s1); (Netsim.Time.us d2, s2) ]
      in
      o.converged && o.agreement && o.topology_correct)

let test_runner_three_way_overlap () =
  let g = Topo.Build.torus 4 4 in
  let o =
    Reconfig.Runner.run g
      ~triggers:[ (0, 0); (Netsim.Time.us 40, 15); (Netsim.Time.us 80, 7) ]
  in
  check_outcome "three-way" o;
  (* The highest (epoch, id) tag wins: all initiators used epoch 1, so
     the largest id prevails. *)
  Alcotest.(check int) "winner" 15 o.final_tag.Reconfig.Tag.initiator

let test_runner_sequential_epochs () =
  let g = Topo.Build.ring 5 in
  let o1 = Reconfig.Runner.run g ~triggers:[ (0, 0) ] in
  Alcotest.(check int) "first epoch" 1 o1.final_tag.Reconfig.Tag.epoch;
  (* The graph nodes are fresh per run in this runner, so a second run
     restarts at epoch 1; sequencing across runs is covered by the
     stored-tag rule tested at the proto level. *)
  let o2 = Reconfig.Runner.run g ~triggers:[ (0, 3) ] in
  Alcotest.(check bool) "second run converges" true o2.converged

let test_runner_split_heal_events () =
  (* One run spanning a partition and its heal, via mid-run events: a
     ring of 6 cut at links 0 and 3 splits into {1,2,3} / {4,5,0}; each
     side reconfigures to its own tag, then the heal (detected only on
     one side, so the other must be pried loose by Reject) converges
     everyone onto a tag above both. *)
  let g = Topo.Build.ring 6 in
  let split = Netsim.Time.ms 10 and heal = Netsim.Time.ms 60 in
  let d = Netsim.Time.ms 1 in
  let o =
    Reconfig.Runner.run g
      ~events:
        [ (split, `Fail_link 0); (split, `Fail_link 3);
          (heal, `Restore_link 0); (heal, `Restore_link 3) ]
      ~triggers:
        [ (split + d, 1); (split + d, 4);
          (* two extra rounds push {1,2,3} to epoch 3, so the heal
             initiator's epoch-2 attempt is strictly below it *)
          (split + Netsim.Time.ms 20, 2);
          (split + Netsim.Time.ms 30, 2);
          (* only the low-epoch side notices the restore: convergence
             requires the Reject path *)
          (heal + d, 4) ]
  in
  Alcotest.(check bool) "heal converged" true o.converged;
  Alcotest.(check bool) "heal agreement" true o.agreement;
  Alcotest.(check bool) "heal topology correct" true o.topology_correct;
  (* The completion log shows the divergent mid-run tags. *)
  let in_split (_, _, at, _) = at > split && at < heal in
  let side_tag members =
    List.fold_left
      (fun acc (s, tag, _, _) ->
        if List.mem s members then Some tag else acc)
      None
      (List.filter in_split o.completions)
  in
  (match (side_tag [ 1; 2; 3 ], side_tag [ 4; 5; 0 ]) with
  | Some ta, Some tb ->
    Alcotest.(check bool) "divergent while split" false
      (Reconfig.Tag.equal ta tb);
    Alcotest.(check bool) "heal tag above both" true
      Reconfig.Tag.(o.final_tag > ta && o.final_tag > tb)
  | _ -> Alcotest.fail "both sides should have completed while split");
  (* Every split-phase completion matched its component's topology at
     that moment. *)
  Alcotest.(check bool) "split completions component-correct" true
    (List.for_all (fun (_, _, _, ok) -> ok)
       (List.filter in_split o.completions))

let test_runner_after_link_failure () =
  let g = Topo.Build.src_lan () in
  let o = Reconfig.Runner.run_after_failure g ~fail:(`Link 0) in
  check_outcome "link failure" o;
  Alcotest.(check bool) "within 200ms (paper)" true
    (o.elapsed < Netsim.Time.ms 200)

let test_runner_pull_the_plug () =
  (* The paper's demo: kill an arbitrary switch in the SRC LAN; the
     network reconfigures in under 200 ms. *)
  for victim = 0 to 9 do
    let g = Topo.Build.src_lan () in
    let o = Reconfig.Runner.run_after_failure g ~fail:(`Switch victim) in
    Alcotest.(check bool) (Printf.sprintf "victim %d converged" victim) true
      o.converged;
    Alcotest.(check bool)
      (Printf.sprintf "victim %d under 200ms" victim)
      true
      (o.elapsed < Netsim.Time.ms 200)
  done

let test_runner_partition () =
  (* Failing the only link of a chain partitions it; the surviving
     configuration covers one side and is internally consistent. *)
  let g = Topo.Build.linear 6 in
  let o = Reconfig.Runner.run_after_failure g ~fail:(`Link 2) in
  Alcotest.(check bool) "converged (winning side)" true o.converged;
  Alcotest.(check bool) "agreement" true o.agreement

let test_runner_dead_link_failure_noop () =
  let g = Topo.Build.linear 3 in
  Topo.Graph.fail_link g 0;
  Alcotest.(check bool) "nothing to detect" true
    (try ignore (Reconfig.Runner.run_after_failure g ~fail:(`Link 0)); false
     with Invalid_argument _ -> true)

(* The working topology of a connected graph, built here independently
   of the runner: the ids of every working switch link and host
   attachment, ascending. *)
let working_edges g =
  let acc = ref [] in
  for s = 0 to Topo.Graph.switch_count g - 1 do
    Topo.Graph.iter_switch_neighbors g s (fun _ lid -> acc := lid :: !acc);
    Topo.Graph.iter_hosts_of_switch g s (fun _ lid -> acc := lid :: !acc)
  done;
  Array.of_list (List.sort_uniq compare !acc)

let test_judge_equal_copies () =
  let g = Topo.Build.src_lan () in
  let judge = Reconfig.Runner.make_judge g in
  let truth = working_edges g in
  let copy = Array.copy truth in
  Alcotest.(check bool) "copy is a distinct value" false (copy == truth);
  Alcotest.(check bool) "array judged correct" true (judge ~root:0 truth);
  Alcotest.(check bool) "equal copy judged correct" true (judge ~root:0 copy);
  Alcotest.(check bool) "same array, other switch" true (judge ~root:5 copy)

let test_judge_missing_edge () =
  let g = Topo.Build.src_lan () in
  let judge = Reconfig.Runner.make_judge g in
  let truth = working_edges g in
  let n = Array.length truth in
  let missing = Array.append (Array.sub truth 0 3) (Array.sub truth 4 (n - 4)) in
  Alcotest.(check bool) "correct array first" true (judge ~root:0 truth);
  Alcotest.(check bool) "missing edge judged wrong" false
    (judge ~root:0 missing);
  Alcotest.(check bool) "suffix judged wrong" false
    (judge ~root:0 (Array.sub truth 1 (n - 1)));
  Alcotest.(check bool) "correct array again" true (judge ~root:0 truth);
  (* The same physical learned array is judged again once the graph
     moves: after a link failure the old topology is wrong. *)
  Topo.Graph.fail_link g 0;
  Alcotest.(check bool) "stale array judged wrong" false (judge ~root:0 truth);
  Alcotest.(check bool) "new truth judged correct" true
    (judge ~root:0 (working_edges g))

(* A run's allocation is exact for a given build, so a bound on it
   catches waste without a clock. Global repair of one cut on
   fat-tree:16 over 4 partitions allocates 1,387,865 minor words in
   the default (dev) profile; with learned topologies as edge lists,
   sorted whole in the truth oracle and at the root, it allocated
   3,132,441, and with a retransmission timer and loss draws per
   message 1,801,419. The bound is 1,387,865 plus 5%. The engine
   events the repair schedules are exact too: three per message (the
   cell, its ack and the line-card handling) and one per trigger.
   With a retransmission timer per message they were 52,970, 13,242
   of them cancelled, so a timer, a cancel or any other event per
   message that comes back fails here. *)
let test_reconfig_allocation_pinned () =
  let run ?obs () =
    let g, _ = Topo.Build.fat_tree ~k:16 in
    ignore (Topo.Graph.switch_degree g 0);
    let w0 = Gc.minor_words () in
    let o =
      Reconfig.Runner.run_after_failure ?obs ~partitions:4 ~domains:1 g
        ~fail:(`Link 0)
    in
    check_outcome "fat-tree:16" o;
    Gc.minor_words () -. w0
  in
  let words = run () in
  let bound = 1_387_865. *. 1.05 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words <= %.0f" words bound)
    true (words <= bound);
  let obs = Obs.Sink.create () in
  ignore (run ~obs ());
  let m = Obs.Sink.metrics obs in
  let count name = Obs.Metrics.Counter.value (Obs.Metrics.counter m name) in
  Alcotest.(check (pair int int)) "engine events scheduled, cancelled"
    (39_728, 0)
    (count "engine.events.scheduled", count "engine.events.cancelled")

(* The same pin on the resend path, through the cluster: switch 0 of
   fat-tree:8 fails under 5% control loss, over 4 partitions on one
   domain. The loss draws, retransmit timers and their cancels are
   exact for a given seed, so the engine events scheduled and
   cancelled and the wire transmissions are pinned as they are; the
   minor words get 5% on top of the 326,994 this run allocated
   when the lossless channel was a separate implementation. *)
let test_reconfig_lossy_pinned () =
  let params =
    { Reconfig.Runner.default_params with control_loss = 0.05; seed = 9 }
  in
  let run ?obs () =
    let g, _ = Topo.Build.fat_tree ~k:8 in
    ignore (Topo.Graph.switch_degree g 0);
    let w0 = Gc.minor_words () in
    let o =
      Reconfig.Runner.run_after_failure ~params ?obs ~partitions:4 ~domains:1
        g ~fail:(`Switch 0)
    in
    check_outcome "fat-tree:8 lossy" o;
    (o, Gc.minor_words () -. w0)
  in
  let o, words = run () in
  let bound = 326_994. *. 1.05 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words <= %.0f" words bound)
    true (words <= bound);
  Alcotest.(check (pair int int)) "messages, wire transmissions" (2_178, 2_448)
    (o.messages, o.wire_transmissions);
  let obs = Obs.Sink.create () in
  ignore (run ~obs ());
  let m = Obs.Sink.metrics obs in
  let count name = Obs.Metrics.Counter.value (Obs.Metrics.counter m name) in
  Alcotest.(check (pair int int)) "engine events scheduled, cancelled"
    (9_006, 2_114)
    (count "engine.events.scheduled", count "engine.events.cancelled")

let test_judge_event_between_completions () =
  (* A ring of 6 configures from switch 0; link 2 dies while the
     Distribute is on its way down, so the switches that complete
     after the cut hold a topology with a dead link in it. Switch 2
     then reconfigures around the cut. *)
  let g = Topo.Build.ring 6 in
  let o =
    Reconfig.Runner.run g
      ~events:[ (Netsim.Time.ms 1, `Fail_link 2) ]
      ~triggers:[ (0, 0); (Netsim.Time.ms 5, 2) ]
  in
  check_outcome "ring after cut" o;
  Alcotest.(check (list (triple int int bool)))
    "completion verdicts"
    [ (0, 1, true); (5, 1, true); (1, 1, true); (4, 1, false); (2, 1, false);
      (2, 2, true); (1, 2, true); (0, 2, true); (5, 2, true); (4, 2, true);
      (3, 2, true) ]
    (List.map (fun (s, tag, _, ok) -> (s, tag.Reconfig.Tag.epoch, ok))
       o.completions)

(* ------------------------------------------------------------------ *)
(* Reliable control channels *)

(* The resend half of a channel on a single engine: a 50 us
   retransmission timer, both loss coins drawn from [rng]. *)
let resend ~engine ~rng ~loss =
  {
    Reconfig.Reliable.sched_local =
      (fun ~delay f -> Netsim.Engine.schedule engine ~delay f);
    cancel_local = Netsim.Engine.cancel engine;
    lost_fwd = (fun () -> Netsim.Rng.bernoulli rng loss);
    lost_back = (fun () -> Netsim.Rng.bernoulli rng loss);
    retransmit_after = Netsim.Time.us 50;
  }

(* One channel with its resend half over a 1 us wire. *)
let reliable_channel ~engine ~rng ~loss ~window ~deliver =
  let post f = Netsim.Engine.post engine ~delay:(Netsim.Time.us 1) f in
  Reconfig.Reliable.create ~post_fwd:post ~post_back:post
    ~resend:(Some (resend ~engine ~rng ~loss))
    ~window ~deliver

let reliable_pair ~loss ~seed =
  let engine = Netsim.Engine.create () in
  let rng = Netsim.Rng.create seed in
  let received = ref [] in
  let ch =
    reliable_channel ~engine ~rng ~loss ~window:4 ~deliver:(fun msg ->
        received := msg :: !received)
  in
  (engine, ch, received)

let test_reliable_lossless_in_order () =
  let engine, ch, received = reliable_pair ~loss:0.0 ~seed:1 in
  for i = 1 to 20 do
    Reconfig.Reliable.send ch i
  done;
  Netsim.Engine.run engine;
  Alcotest.(check (list int)) "all, in order" (List.init 20 (fun i -> i + 1))
    (List.rev !received);
  Alcotest.(check bool) "idle" true (Reconfig.Reliable.idle ch);
  Alcotest.(check int) "no retransmissions" 20
    (Reconfig.Reliable.transmissions ch)

let test_reliable_survives_loss =
  qtest ~count:50 "reliable delivers everything in order under loss"
    (QCheck.make
       ~print:(fun (seed, loss, k) -> Printf.sprintf "seed=%d loss=%.2f k=%d" seed loss k)
       QCheck.Gen.(triple (int_range 0 10_000) (float_range 0.0 0.5) (int_range 1 60)))
    (fun (seed, loss, k) ->
      let engine, ch, received = reliable_pair ~loss ~seed in
      for i = 1 to k do
        Reconfig.Reliable.send ch i
      done;
      Netsim.Engine.run engine;
      List.rev !received = List.init k (fun i -> i + 1)
      && Reconfig.Reliable.idle ch)

let test_reliable_exactly_once_random_windows =
  (* The satellite property: whatever the loss rate and go-back-N
     window, every message is delivered exactly once, in order, and a
     drained channel leaves its retransmit timer disarmed. *)
  qtest ~count:100 "exactly-once in-order; idle => timer disarmed"
    (QCheck.make
       ~print:(fun (seed, loss, window, k) ->
         Printf.sprintf "seed=%d loss=%.2f window=%d k=%d" seed loss window k)
       QCheck.Gen.(
         quad (int_range 0 20_000) (float_range 0.0 0.6) (int_range 1 8)
           (int_range 1 50)))
    (fun (seed, loss, window, k) ->
      let engine = Netsim.Engine.create () in
      let rng = Netsim.Rng.create seed in
      let received = ref [] in
      let ch =
        reliable_channel ~engine ~rng ~loss ~window ~deliver:(fun msg ->
            received := msg :: !received)
      in
      for i = 1 to k do
        Reconfig.Reliable.send ch i
      done;
      (* Probe the idle => disarmed invariant mid-flight too, not just
         at quiescence. *)
      let invariant_ok = ref true in
      let rec probe n =
        if Reconfig.Reliable.idle ch && Reconfig.Reliable.retransmit_armed ch
        then invariant_ok := false;
        if n > 0 then
          Netsim.Engine.post engine ~delay:(Netsim.Time.us 7) (fun () ->
              probe (n - 1))
      in
      probe 100;
      Netsim.Engine.run engine;
      (* exactly once, in order: the received list IS 1..k *)
      List.rev !received = List.init k (fun i -> i + 1)
      && !invariant_ok
      && Reconfig.Reliable.idle ch
      && (not (Reconfig.Reliable.retransmit_armed ch))
      && Netsim.Engine.pending engine = 0)

(* One channel over a bare engine: [make engine post deliver] builds
   it, with [post] the wire, and returns its send, transmissions, idle
   and retransmit_armed. [schedule] lists (gap, burst) pairs, a burst
   of sends [gap] ns after the previous one. Returns the delivery log
   (time, payload), the transmissions, the final [idle],
   [retransmit_armed] after every burst and every delivery, and the
   engine's events scheduled, cancelled and left pending after 1 s. *)
let run_channel ~latency schedule make =
  let obs = Obs.Sink.create () in
  let engine = Netsim.Engine.create ~obs () in
  let log = ref [] and probes = ref [] and probe = ref ignore in
  let deliver msg =
    log := (Netsim.Engine.now engine, msg) :: !log;
    !probe ()
  in
  let post f = Netsim.Engine.post engine ~delay:latency f in
  let send, transmissions, idle, armed = make engine post deliver in
  (probe := fun () -> probes := armed () :: !probes);
  let at = ref 0 and sent = ref 0 in
  List.iter
    (fun (gap, burst) ->
      at := !at + gap;
      let first = !sent in
      sent := first + burst;
      Netsim.Engine.post_at engine ~at:!at (fun () ->
          for i = first to first + burst - 1 do
            send i
          done;
          !probe ()))
    schedule;
  (* A channel that stops making progress but keeps its timer armed
     would run forever; within the horizon every correct run drains. *)
  Netsim.Engine.run_until engine (Netsim.Time.s 1);
  let m = Obs.Sink.metrics obs in
  let count name = Obs.Metrics.Counter.value (Obs.Metrics.counter m name) in
  ( List.rev !log,
    transmissions (),
    idle (),
    List.rev !probes,
    (count "engine.events.scheduled", count "engine.events.cancelled",
     Netsim.Engine.pending engine) )

let reference ~seed ~loss ~window engine post deliver =
  let rng = Netsim.Rng.create seed in
  let c =
    Oracle.Reliable_reference.create_over
      ~wire:
        {
          Oracle.Reliable_reference.sched_local =
            (fun ~delay f -> Netsim.Engine.schedule engine ~delay f);
          cancel_local = Netsim.Engine.cancel engine;
          post_fwd = post;
          post_back = post;
          lost_fwd = (fun () -> Netsim.Rng.bernoulli rng loss);
          lost_back = (fun () -> Netsim.Rng.bernoulli rng loss);
        }
      ~retransmit_after:(Netsim.Time.us 50) ~window ~deliver
  in
  ( Oracle.Reliable_reference.send c,
    (fun () -> Oracle.Reliable_reference.transmissions c),
    (fun () -> Oracle.Reliable_reference.idle c),
    fun () -> Oracle.Reliable_reference.retransmit_armed c )

let channel ~seed ~loss ~with_resend ~window engine post deliver =
  let rng = Netsim.Rng.create seed in
  let c =
    Reconfig.Reliable.create ~post_fwd:post ~post_back:post
      ~resend:
        (if with_resend then Some (resend ~engine ~rng ~loss) else None)
      ~window ~deliver
  in
  ( Reconfig.Reliable.send c,
    (fun () -> Reconfig.Reliable.transmissions c),
    (fun () -> Reconfig.Reliable.idle c),
    fun () -> Reconfig.Reliable.retransmit_armed c )

let test_reliable_matches_reference =
  (* Latencies up to 30 us put twice the latency on both sides of the
     50 us timer; bursts up to 20 outrun windows up to 8. With its
     resend half the channel is the reference event for event, loss
     draws included. At zero loss and twice the latency below the
     timer the channel without one delivers the same at the same
     times, never arms a timer, and schedules exactly the reference's
     events less its timers, all of which the reference cancelled. *)
  qtest ~count:300 "channel = reference at any loss"
    (QCheck.make
       ~print:(fun (seed, loss, window, latency, schedule) ->
         Printf.sprintf "seed=%d loss=%.3f window=%d latency=%d schedule=[%s]"
           seed loss window latency
           (String.concat "; "
              (List.map (fun (g, b) -> Printf.sprintf "%d,%d" g b) schedule)))
       QCheck.Gen.(
         map
           (fun ((seed, loss), (window, latency, schedule)) ->
             (seed, loss, window, latency, schedule))
           (pair
              (pair (int_range 0 20_000)
                 (oneof [ return 0.0; float_range 0.01 0.5 ]))
              (triple (int_range 1 8)
                 (int_range 0 (Netsim.Time.us 30))
                 (list_size (int_range 1 12)
                    (pair (int_range 0 (Netsim.Time.us 30)) (int_range 1 20)))))))
    (fun (seed, loss, window, latency, schedule) ->
      let ((log, tx, idle, _, (scheduled, cancelled, pending)) as expected) =
        run_channel ~latency schedule (reference ~seed ~loss ~window)
      in
      run_channel ~latency schedule
        (channel ~seed ~loss ~with_resend:true ~window)
      = expected
      && (loss > 0.0
         || 2 * latency >= Netsim.Time.us 50
         ||
         let log', tx', idle', probes', (scheduled', cancelled', pending') =
           run_channel ~latency schedule
             (channel ~seed ~loss ~with_resend:false ~window)
         in
         log' = log && tx' = tx && idle' = idle
         && List.for_all not probes'
         && scheduled' = scheduled - cancelled
         && cancelled' = 0 && pending' = pending))

let test_reliable_retransmits () =
  let engine, ch, received = reliable_pair ~loss:0.5 ~seed:7 in
  for i = 1 to 10 do
    Reconfig.Reliable.send ch i
  done;
  Netsim.Engine.run engine;
  Alcotest.(check int) "all delivered" 10 (List.length !received);
  Alcotest.(check bool) "used retransmissions" true
    (Reconfig.Reliable.transmissions ch > 10)

(* A window-bound run at zero loss. Three hubs each link to all of 40
   leaves; switch 0 dies, and each surviving hub answers 40 leaves at
   once, so its channels outrun the 32-message window and the window
   holds messages back. The figures are pinned at 1 and 4 partitions:
   a channel that sent held messages early or late, or in another
   order, would move them. *)
let hub_graph () =
  let g = Topo.Graph.create ~ports_per_switch:42 () in
  Topo.Graph.add_switches g 43;
  for hub = 0 to 2 do
    for leaf = 3 to 42 do
      ignore
        (Topo.Graph.connect g (Topo.Graph.Switch hub) (Topo.Graph.Switch leaf))
    done
  done;
  g

let test_runner_window_bound_pinned () =
  let pin partitions =
    let o =
      Reconfig.Runner.run_after_failure ~partitions (hub_graph ())
        ~fail:(`Switch 0)
    in
    ( (o.converged, o.messages, o.wire_transmissions),
      (o.elapsed, o.final_tag.epoch, o.final_tag.initiator) )
  in
  let t = Alcotest.(pair (triple bool int int) (triple int int int)) in
  Alcotest.check t "1 partition" ((true, 8042, 8042), (100_812_000, 1, 42)) (pin 1);
  Alcotest.check t "4 partitions" ((true, 5436, 5436), (100_808_000, 1, 42)) (pin 4)

let test_runner_under_control_loss () =
  let g = Topo.Build.src_lan () in
  let params =
    { Reconfig.Runner.default_params with control_loss = 0.2; seed = 3 }
  in
  let o = Reconfig.Runner.run_after_failure ~params g ~fail:(`Switch 4) in
  Alcotest.(check bool) "converged" true o.converged;
  Alcotest.(check bool) "correct" true o.topology_correct;
  Alcotest.(check bool) "retransmitted" true (o.wire_transmissions > o.messages);
  Alcotest.(check bool) "still under 200ms" true (o.elapsed < Netsim.Time.ms 200)

(* ------------------------------------------------------------------ *)
(* Localized reconfiguration *)

let first_switch_link g =
  List.find_map
    (fun (l : Topo.Graph.link) ->
      match (l.a.node, l.b.node, l.state) with
      | Topo.Graph.Switch _, Topo.Graph.Switch _, Topo.Graph.Working ->
        Some l.link_id
      | _ -> None)
    (Topo.Graph.links g)

let test_local_basic () =
  let g = Topo.Build.ring 16 in
  let o = Reconfig.Local.run_after_failure ~radius:2 g ~fail:5 in
  Alcotest.(check bool) "converged" true o.converged;
  Alcotest.(check bool) "correct" true o.region_correct;
  Alcotest.(check bool) "scoped" true (o.participants < o.total_switches);
  Alcotest.(check int) "6 participants on a ring at radius 2" 6 o.participants

(* Closed form on a ring: each endpoint of the cut runs a chain of r
   invites, r acks, r reports and r distributes, and the two regions
   are disjoint while 2r + 2 <= n. The distribution reaches the chain's
   far end after three traversals of r hops. *)
let test_local_ring_closed_form =
  qtest ~count:40 "ring repair: 2r+2 participants, 8r messages, 3r hops"
    (QCheck.make
       ~print:(fun (n, r, fail) -> Printf.sprintf "n=%d r=%d fail=%d" n r fail)
       QCheck.Gen.(
         int_range 4 24 >>= fun n ->
         int_range 1 ((n - 2) / 2) >>= fun r ->
         int_range 0 (n - 1) >|= fun fail -> (n, r, fail)))
    (fun (n, r, fail) ->
      let g = Topo.Build.ring n in
      let hop =
        (Topo.Graph.link g fail).Topo.Graph.latency + Netsim.Time.us 100
      in
      let o =
        Reconfig.Local.run_after_failure ~proc_delay:(Netsim.Time.us 100)
          ~radius:r g ~fail
      in
      o.converged && o.region_correct
      && o.participants = (2 * r) + 2
      && o.messages = 8 * r
      && o.elapsed = 3 * r * hop)

let test_local_scales_with_radius () =
  let parts r =
    let g = Topo.Build.torus 6 6 in
    (Reconfig.Local.run_after_failure ~radius:r g ~fail:20).participants
  in
  let p1 = parts 1 and p2 = parts 2 and p3 = parts 3 in
  Alcotest.(check bool)
    (Printf.sprintf "monotone: %d <= %d <= %d" p1 p2 p3)
    true
    (p1 <= p2 && p2 <= p3);
  Alcotest.(check bool) "radius 1 is small" true (p1 <= 10)

let test_local_correct_on_random =
  qtest ~count:60 "scoped merge equals the true topology"
    (QCheck.make
       ~print:(fun (seed, radius) -> Printf.sprintf "seed=%d r=%d" seed radius)
       QCheck.Gen.(pair (int_range 0 10_000) (int_range 1 4)))
    (fun (seed, radius) ->
      let rng = Netsim.Rng.create seed in
      let g = Topo.Build.random_connected ~rng ~switches:20 ~extra_links:15 in
      (* attach a few hosts so host edges participate in merges *)
      for s = 0 to 4 do
        let h = Topo.Graph.add_host g in
        ignore (Topo.Graph.connect g (Host h) (Switch (s * 3)))
      done;
      match first_switch_link g with
      | None -> false
      | Some lid ->
        let o = Reconfig.Local.run_after_failure ~radius g ~fail:lid in
        o.converged && o.region_correct)

let test_local_cheaper_than_global () =
  let g1 = Topo.Build.torus 6 6 in
  let local = Reconfig.Local.run_after_failure ~radius:1 g1 ~fail:20 in
  let g2 = Topo.Build.torus 6 6 in
  let global = Reconfig.Runner.run_after_failure g2 ~fail:(`Link 20) in
  Alcotest.(check bool)
    (Printf.sprintf "local %d msgs < global %d" local.messages global.messages)
    true
    (local.messages * 2 < global.messages)

let test_local_partitioning_failure () =
  (* Failing a bridge partitions the chain; both sides still converge
     and agree with the (partitioned) truth. *)
  let g = Topo.Build.linear 8 in
  let o = Reconfig.Local.run_after_failure ~radius:2 g ~fail:3 in
  Alcotest.(check bool) "converged" true o.converged;
  Alcotest.(check bool) "correct across the partition" true o.region_correct

let test_local_validation () =
  let g = Topo.Build.src_lan () in
  (* Link 3 joins a switch pair; fail it first so it is already dead. *)
  Topo.Graph.fail_link g 3;
  Alcotest.(check bool) "dead link rejected" true
    (try ignore (Reconfig.Local.run_after_failure g ~fail:3); false
     with Invalid_argument _ -> true);
  let g2 = Topo.Build.src_lan () in
  (* A host attachment is a valid trigger with a single initiator: the
     switch end detects the loss and repairs the region. *)
  let host_link =
    List.find_map
      (fun (l : Topo.Graph.link) ->
        match (l.a.node, l.b.node) with
        | Topo.Graph.Host _, _ | _, Topo.Graph.Host _ -> Some l.link_id
        | _ -> None)
      (Topo.Graph.links g2)
  in
  (match host_link with
   | None -> Alcotest.fail "src_lan has host links"
   | Some lid ->
     let o = Reconfig.Local.run_after_failure g2 ~fail:lid in
     Alcotest.(check bool) "host-link repair converges" true o.converged;
     Alcotest.(check bool) "host-link repair correct" true o.region_correct);
  (* An out-of-scope initiator is rejected. *)
  let g3 = Topo.Build.src_lan () in
  Alcotest.(check bool) "out-of-scope initiator rejected" true
    (try
       ignore
         (Reconfig.Local.run_after_failure ~scope:(fun s -> s > 5) g3 ~fail:0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Hierarchical repair *)

let test_hier_pod_local () =
  let k = 4 in
  let g, pods = Topo.Build.fat_tree ~k in
  (* Link 0 joins an edge and an aggregation switch of pod 0. *)
  let o = Reconfig.Hier.repair g pods ~fail:0 in
  Alcotest.(check bool) "pod strategy" true
    (o.strategy = Reconfig.Hier.Pod_local 0);
  Alcotest.(check bool) "converged" true o.converged;
  Alcotest.(check bool) "correct" true o.correct;
  Alcotest.(check int) "only the pod participates" k o.participants;
  Alcotest.(check int) "fabric untouched" (5 * k * k / 4) o.total_switches;
  (* Random intra-pod cuts (switch links and host attachments): the
     whole pod of k switches repairs, and nobody else. *)
  let rng = Netsim.Rng.create 7 in
  List.iter
    (fun k ->
      for _ = 1 to 5 do
        let g, pods = Topo.Build.fat_tree ~k in
        let intra =
          List.filter_map
            (fun (l : Topo.Graph.link) ->
              match Topo.Pods.scope_of_link pods g l.link_id with
              | Topo.Pods.Pod p -> Some (l.link_id, p)
              | Topo.Pods.Global -> None)
            (Topo.Graph.links g)
          |> Array.of_list
        in
        let fail, pod = intra.(Netsim.Rng.int rng (Array.length intra)) in
        let o = Reconfig.Hier.repair g pods ~fail in
        let what = Printf.sprintf "k=%d link %d" k fail in
        Alcotest.(check bool) (what ^ " pod strategy") true
          (o.strategy = Reconfig.Hier.Pod_local pod);
        Alcotest.(check bool) (what ^ " converged") true o.converged;
        Alcotest.(check bool) (what ^ " correct") true o.correct;
        Alcotest.(check int) (what ^ " participants") k o.participants
      done)
    [ 4; 6; 8 ]

(* E34's payload-cost model on fat-tree:8: 1 us of line-card time per
   edge in a Report or Distribute, a 30 s horizon and 100 ms of
   detection. The figures are pinned, so any change to what a payload
   is charged shows here. *)
let test_payload_cost_pinned () =
  let params =
    {
      Reconfig.Runner.default_params with
      edge_cost = Netsim.Time.us 1;
      horizon = Netsim.Time.s 30;
    }
  in
  let detection_delay = Netsim.Time.ms 100 in
  let k = 8 in
  let g, _ = Topo.Build.fat_tree ~k in
  let o =
    Reconfig.Runner.run_after_failure ~params ~detection_delay g ~fail:(`Link 0)
  in
  Alcotest.(check (triple int int bool)) "global: messages, elapsed, correct"
    (1530, 103_948_000, true)
    (o.messages, o.elapsed, o.topology_correct);
  let hier fail =
    let g, pods = Topo.Build.fat_tree ~k in
    let o = Reconfig.Hier.repair ~params ~detection_delay g pods ~fail in
    (o.messages, o.elapsed, o.correct)
  in
  Alcotest.(check (triple int int bool)) "pod-local: messages, elapsed, correct"
    (120, 101_111_000, true) (hier 0);
  Alcotest.(check (triple int int bool))
    "escalated: messages, elapsed, correct" (1313, 104_779_000, true)
    (hier (k * k * k / 4))

let test_hier_escalates () =
  let k = 4 in
  let g, pods = Topo.Build.fat_tree ~k in
  (* The first aggregation-core link crosses the pod boundary. *)
  let o = Reconfig.Hier.repair g pods ~fail:(k * k * k / 4) in
  Alcotest.(check bool) "global strategy" true
    (o.strategy = Reconfig.Hier.Global);
  Alcotest.(check bool) "converged" true o.converged;
  Alcotest.(check bool) "correct" true o.correct;
  Alcotest.(check int) "everyone participates" (5 * k * k / 4) o.participants

let test_hier_host_attachment () =
  let k = 4 in
  let g, pods = Topo.Build.fat_tree ~k in
  (* Host attachments inherit their switch's pod. *)
  let o = Reconfig.Hier.repair g pods ~fail:(k * k * k / 2) in
  Alcotest.(check bool) "pod strategy for host link" true
    (o.strategy = Reconfig.Hier.Pod_local 0);
  Alcotest.(check bool) "converged" true o.converged;
  Alcotest.(check bool) "correct" true o.correct

(* ------------------------------------------------------------------ *)
(* Skeptic *)

let test_skeptic_level_growth () =
  let params =
    { Reconfig.Skeptic.base_wait = Netsim.Time.ms 100; max_level = 5;
      decay = Netsim.Time.s 60 }
  in
  let s = Reconfig.Skeptic.create ~params () in
  Alcotest.(check int) "starts at 0" 0 (Reconfig.Skeptic.level s ~now:0);
  Alcotest.(check int) "base wait" (Netsim.Time.ms 100)
    (Reconfig.Skeptic.recovery_wait s ~now:0);
  Reconfig.Skeptic.note_failure s ~now:0;
  Alcotest.(check int) "level 1" 1 (Reconfig.Skeptic.level s ~now:0);
  Alcotest.(check int) "wait doubles" (Netsim.Time.ms 200)
    (Reconfig.Skeptic.recovery_wait s ~now:0);
  Reconfig.Skeptic.note_failure s ~now:1;
  Reconfig.Skeptic.note_failure s ~now:2;
  Alcotest.(check int) "level 3" 3 (Reconfig.Skeptic.level s ~now:2);
  Alcotest.(check int) "wait 800ms" (Netsim.Time.ms 800)
    (Reconfig.Skeptic.recovery_wait s ~now:2)

let test_skeptic_cap () =
  let params =
    { Reconfig.Skeptic.base_wait = Netsim.Time.ms 10; max_level = 3;
      decay = Netsim.Time.s 60 }
  in
  let s = Reconfig.Skeptic.create ~params () in
  for i = 0 to 9 do
    Reconfig.Skeptic.note_failure s ~now:i
  done;
  Alcotest.(check int) "capped" 3 (Reconfig.Skeptic.level s ~now:10)

let test_skeptic_decay () =
  let params =
    { Reconfig.Skeptic.base_wait = Netsim.Time.ms 10; max_level = 10;
      decay = Netsim.Time.s 1 }
  in
  let s = Reconfig.Skeptic.create ~params () in
  Reconfig.Skeptic.note_failure s ~now:0;
  Reconfig.Skeptic.note_failure s ~now:1;
  Alcotest.(check int) "level 2" 2 (Reconfig.Skeptic.level s ~now:1);
  Alcotest.(check int) "one level shed" 1
    (Reconfig.Skeptic.level s ~now:(Netsim.Time.s 1 + 1));
  Alcotest.(check int) "fully decayed" 0
    (Reconfig.Skeptic.level s ~now:(Netsim.Time.s 5))

(* ------------------------------------------------------------------ *)
(* Monitor *)

let run_monitor ~flips ~total_time =
  (* [flips]: times at which the physical link toggles (starts up). *)
  let engine = Netsim.Engine.create () in
  let up = ref true in
  List.iter
    (fun at -> ignore (Netsim.Engine.schedule_at engine ~at (fun () -> up := not !up)))
    flips;
  let transitions = ref [] in
  let m =
    Reconfig.Monitor.create ~engine ~params:Reconfig.Monitor.default_params
      ~link_up:(fun () -> !up)
      ~on_transition:(fun ~up at -> transitions := (up, at) :: !transitions)
  in
  Reconfig.Monitor.start m;
  Netsim.Engine.run_until engine total_time;
  (m, List.rev !transitions)

let test_monitor_detects_death () =
  let m, transitions =
    run_monitor ~flips:[ Netsim.Time.ms 200 ] ~total_time:(Netsim.Time.ms 600)
  in
  (match transitions with
   | [ (false, at) ] ->
     Alcotest.(check bool) "detected within ~150ms" true
       (at - Netsim.Time.ms 200 <= Netsim.Time.ms 150)
   | _ -> Alcotest.fail "expected exactly one down transition");
  Alcotest.(check bool) "declared down" false (Reconfig.Monitor.declared_up m)

let test_monitor_recovery_needs_probation () =
  let _, transitions =
    run_monitor
      ~flips:[ Netsim.Time.ms 100; Netsim.Time.ms 300 ]
      ~total_time:(Netsim.Time.s 2)
  in
  match transitions with
  | [ (false, _); (true, up_at) ] ->
    (* Probation after one failure is 200 ms, so recovery is declared
       no earlier than ~500 ms. *)
    Alcotest.(check bool) "probation served" true (up_at >= Netsim.Time.ms 450)
  | _ -> Alcotest.fail "expected down then up"

let test_monitor_flapping_damped () =
  (* A link that flaps every 150 ms for 30 s: without the skeptic this
     is ~200 transitions; the skeptic's growing probation must damp
     declared transitions to a small number. *)
  let flips = List.init 200 (fun i -> (i + 1) * Netsim.Time.ms 150) in
  let m, transitions = run_monitor ~flips ~total_time:(Netsim.Time.s 40) in
  ignore m;
  Alcotest.(check bool)
    (Printf.sprintf "%d transitions << 200" (List.length transitions))
    true
    (List.length transitions < 20)

let test_monitor_no_false_alarms () =
  let m, transitions = run_monitor ~flips:[] ~total_time:(Netsim.Time.s 5) in
  Alcotest.(check int) "no transitions" 0 (List.length transitions);
  Alcotest.(check bool) "still up" true (Reconfig.Monitor.declared_up m)

let test_monitor_stop_drains_engine () =
  (* A monitor's self-reposting tick must be cancellable, or any engine
     hosting one never drains. *)
  let engine = Netsim.Engine.create () in
  let m =
    Reconfig.Monitor.create ~engine ~params:Reconfig.Monitor.default_params
      ~link_up:(fun () -> true)
      ~on_transition:(fun ~up:_ _ -> ())
  in
  Reconfig.Monitor.start m;
  Netsim.Engine.run_until engine (Netsim.Time.s 1);
  (* The next tick is always pending while running... *)
  Alcotest.(check int) "tick pending" 1 (Netsim.Engine.pending engine);
  Reconfig.Monitor.stop m;
  (* ...and gone once stopped: the engine is quiescent. *)
  Alcotest.(check int) "drained after stop" 0 (Netsim.Engine.pending engine);
  Netsim.Engine.run engine;
  Alcotest.(check bool) "no further ticks" true
    (Netsim.Engine.pending engine = 0);
  (* Restart keeps working: pings resume. *)
  Reconfig.Monitor.start m;
  Alcotest.(check int) "re-armed" 1 (Netsim.Engine.pending engine);
  Reconfig.Monitor.stop m;
  Alcotest.(check int) "re-drained" 0 (Netsim.Engine.pending engine)

let test_monitor_relapse_doubles_probation () =
  (* Flap storm: each relapse during probation bumps the skeptic, and
     the *reopened* probation must serve the doubled wait — the wait
     may not be left at the value computed when probation first
     opened. *)
  let interval = Netsim.Time.ms 10 in
  let params =
    { Reconfig.Monitor.interval; miss_threshold = 1;
      skeptic =
        { Reconfig.Skeptic.base_wait = Netsim.Time.ms 100; max_level = 10;
          decay = Netsim.Time.s 3600 } }
  in
  let engine = Netsim.Engine.create () in
  let up = ref true in
  let m =
    Reconfig.Monitor.create ~engine ~params
      ~link_up:(fun () -> !up)
      ~on_transition:(fun ~up:_ _ -> ())
  in
  Reconfig.Monitor.start m;
  (* Ping k lands at time k*interval; toggle just before selected pings. *)
  let set at v = Netsim.Engine.post_at engine ~at (fun () -> up := v) in
  let before k = (k * interval) - Netsim.Time.ms 1 in
  set (before 1) false;  (* ping 1: miss -> declared down, level 1 *)
  set (before 2) true;   (* ping 2: probation opens, wait 200ms *)
  let expected = ref [] and got = ref [] in
  let check_wait k ms =
    expected := Netsim.Time.ms ms :: !expected;
    Netsim.Engine.post_at engine
      ~at:((k * interval) + Netsim.Time.ms 1)
      (fun () -> got := Reconfig.Monitor.probation_wait m :: !got)
  in
  check_wait 2 200;
  set (before 3) false;  (* ping 3: relapse, level 2 *)
  set (before 4) true;   (* ping 4: probation reopens, wait must be 400ms *)
  check_wait 4 400;
  set (before 5) false;  (* ping 5: relapse, level 3 *)
  set (before 6) true;   (* ping 6: reopen, wait 800ms *)
  check_wait 6 800;
  Netsim.Engine.run_until engine (Netsim.Time.s 2);
  Reconfig.Monitor.stop m;
  Alcotest.(check (list int)) "wait doubles per relapse" !expected !got;
  (* After the last reopen the link stays clean for its 800 ms, so the
     monitor eventually re-declares it up. *)
  Alcotest.(check bool) "eventually recovered" true
    (Reconfig.Monitor.declared_up m);
  Alcotest.(check int) "engine quiescent after stop" 0
    (Netsim.Engine.pending engine)

let () =
  Alcotest.run "reconfig"
    [
      ( "tag",
        [
          Alcotest.test_case "ordering" `Quick test_tag_ordering;
          Alcotest.test_case "next" `Quick test_tag_next;
          tag_next_strictly_greater;
          tag_compare_total_order;
        ] );
      ( "proto",
        [
          Alcotest.test_case "isolated node" `Quick test_proto_isolated_node;
          Alcotest.test_case "two nodes by hand" `Quick test_proto_two_nodes_by_hand;
          Alcotest.test_case "stale invite rejected" `Quick
            test_proto_stale_invite_rejected;
          Alcotest.test_case "reject re-initiates" `Quick
            test_proto_reject_reinitiates;
          union_is_sorted_concat;
        ] );
      ( "runner",
        [
          Alcotest.test_case "basic topologies" `Quick test_runner_basic_topologies;
          Alcotest.test_case "single switch" `Quick test_runner_single_switch;
          Alcotest.test_case "phase breakdown" `Quick test_runner_phases;
          Alcotest.test_case "linear tree depth" `Quick test_runner_linear_tree_is_deep;
          test_runner_tree_depth_dominates_bfs;
          Alcotest.test_case "hosts in topology" `Quick
            test_runner_includes_hosts_in_topology;
          test_runner_overlapping;
          Alcotest.test_case "three-way overlap" `Quick test_runner_three_way_overlap;
          Alcotest.test_case "sequential runs" `Quick test_runner_sequential_epochs;
          Alcotest.test_case "split/heal via events" `Quick
            test_runner_split_heal_events;
          Alcotest.test_case "link failure" `Quick test_runner_after_link_failure;
          Alcotest.test_case "pull the plug (paper)" `Slow test_runner_pull_the_plug;
          Alcotest.test_case "partition" `Quick test_runner_partition;
          Alcotest.test_case "dead link no-op" `Quick test_runner_dead_link_failure_noop;
          Alcotest.test_case "judge equal copies" `Quick test_judge_equal_copies;
          Alcotest.test_case "judge missing edge" `Quick test_judge_missing_edge;
          Alcotest.test_case "judge after mid-run event" `Quick
            test_judge_event_between_completions;
          Alcotest.test_case "allocation pinned (fat-tree:16)" `Quick
            test_reconfig_allocation_pinned;
          Alcotest.test_case "lossy run pinned (fat-tree:8)" `Quick
            test_reconfig_lossy_pinned;
        ] );
      ( "reliable",
        [
          Alcotest.test_case "lossless in order" `Quick
            test_reliable_lossless_in_order;
          test_reliable_survives_loss;
          test_reliable_exactly_once_random_windows;
          test_reliable_matches_reference;
          Alcotest.test_case "retransmits" `Quick test_reliable_retransmits;
          Alcotest.test_case "window-bound zero-loss run pinned" `Quick
            test_runner_window_bound_pinned;
          Alcotest.test_case "reconfig under 20% loss" `Quick
            test_runner_under_control_loss;
        ] );
      ( "local",
        [
          Alcotest.test_case "basic ring" `Quick test_local_basic;
          test_local_ring_closed_form;
          Alcotest.test_case "scales with radius" `Quick
            test_local_scales_with_radius;
          test_local_correct_on_random;
          Alcotest.test_case "cheaper than global" `Quick
            test_local_cheaper_than_global;
          Alcotest.test_case "partitioning failure" `Quick
            test_local_partitioning_failure;
          Alcotest.test_case "validation" `Quick test_local_validation;
        ] );
      ( "hier",
        [
          Alcotest.test_case "pod-local repair" `Quick test_hier_pod_local;
          Alcotest.test_case "inter-pod escalates" `Quick test_hier_escalates;
          Alcotest.test_case "payload cost pinned (E34)" `Quick
            test_payload_cost_pinned;
          Alcotest.test_case "host attachment stays local" `Quick
            test_hier_host_attachment;
        ] );
      ( "skeptic",
        [
          Alcotest.test_case "level growth" `Quick test_skeptic_level_growth;
          Alcotest.test_case "cap" `Quick test_skeptic_cap;
          Alcotest.test_case "decay" `Quick test_skeptic_decay;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "detects death" `Quick test_monitor_detects_death;
          Alcotest.test_case "probation before recovery" `Quick
            test_monitor_recovery_needs_probation;
          Alcotest.test_case "flapping damped (paper)" `Quick
            test_monitor_flapping_damped;
          Alcotest.test_case "no false alarms" `Quick test_monitor_no_false_alarms;
          Alcotest.test_case "stop drains the engine" `Quick
            test_monitor_stop_drains_engine;
          Alcotest.test_case "relapse doubles probation" `Quick
            test_monitor_relapse_doubles_probation;
        ] );
    ]
