(* Fault-schedule and churn subsystem tests.

   The schedule layer must be deterministic (same schedule, same
   timeline), drive the cause-tracked graph correctly under
   overlapping faults, and apply nothing once cancelled; the
   churn runner must be a pure function of its parameters so that
   sequential and parallel sweeps agree byte for byte. *)

let ms = Netsim.Time.ms
let s = Netsim.Time.s

(* ------------------------------------------------------------------ *)
(* Schedule expansion                                                 *)

let compound_schedule =
  [
    Faults.Schedule.At (ms 10, Faults.Schedule.Fail_link 0);
    Faults.Schedule.Flap
      { link = 1; start = ms 20; until = ms 200; down_for = ms 30; up_for = ms 20 };
    Faults.Schedule.Crash_restart { switch = 2; at = ms 50; down_for = ms 60 };
    Faults.Schedule.Control_loss_window { from_ = ms 40; until = ms 140; loss = 0.3 };
    Faults.Schedule.Random_churn
      {
        seed = 7;
        start = ms 0;
        until = ms 300;
        rate = 20.0;
        mean_downtime = ms 25;
        links = [ 0; 1; 2 ];
      };
  ]

let test_expand_deterministic () =
  let a = Faults.Schedule.expand compound_schedule in
  let b = Faults.Schedule.expand compound_schedule in
  Alcotest.(check bool) "same timeline" true (a = b);
  Alcotest.(check bool) "non-empty" true (List.length a > 10);
  let rec sorted = function
    | (t1, _) :: ((t2, _) :: _ as rest) -> t1 <= t2 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by time" true (sorted a)

let test_expand_flap () =
  let timeline =
    Faults.Schedule.expand
      [
        Faults.Schedule.Flap
          { link = 5; start = ms 10; until = ms 100; down_for = ms 20; up_for = ms 10 };
      ]
  in
  let expected =
    [
      (ms 10, Faults.Schedule.Fail_link 5);
      (ms 30, Faults.Schedule.Restore_link 5);
      (ms 40, Faults.Schedule.Fail_link 5);
      (ms 60, Faults.Schedule.Restore_link 5);
      (ms 70, Faults.Schedule.Fail_link 5);
      (ms 90, Faults.Schedule.Restore_link 5);
      (ms 100, Faults.Schedule.Restore_link 5);
    ]
  in
  Alcotest.(check bool) "flap pattern" true (timeline = expected)

let test_expand_crash_and_window () =
  let timeline =
    Faults.Schedule.expand
      [
        Faults.Schedule.Crash_restart { switch = 3; at = ms 10; down_for = ms 40 };
        Faults.Schedule.Control_loss_window
          { from_ = ms 20; until = ms 30; loss = 0.5 };
      ]
  in
  let expected =
    [
      (ms 10, Faults.Schedule.Fail_switch 3);
      (ms 20, Faults.Schedule.Set_control_loss 0.5);
      (ms 30, Faults.Schedule.Set_control_loss 0.0);
      (ms 50, Faults.Schedule.Restore_switch 3);
    ]
  in
  Alcotest.(check bool) "crash + window" true (timeline = expected)

(* Property: expansion is deterministic, time-sorted, and idempotent —
   re-expanding a timeline (each entry wrapped back as a one-shot)
   reproduces it exactly. *)

let schedule_gen =
  let open QCheck.Gen in
  let time lo hi = map ms (int_range lo hi) in
  let action =
    oneof
      [
        map (fun l -> Faults.Schedule.Fail_link l) (int_range 0 7);
        map (fun l -> Faults.Schedule.Restore_link l) (int_range 0 7);
        map (fun s -> Faults.Schedule.Fail_switch s) (int_range 0 5);
        map (fun s -> Faults.Schedule.Restore_switch s) (int_range 0 5);
      ]
  in
  let item =
    oneof
      [
        map2 (fun t a -> Faults.Schedule.At (t, a)) (time 0 500) action;
        map2
          (fun link (start, len, down, up) ->
            Faults.Schedule.Flap
              {
                link;
                start;
                until = start + len;
                down_for = down;
                up_for = up;
              })
          (int_range 0 7)
          (quad (time 0 200) (time 1 300) (time 1 50) (time 1 50));
        map2
          (fun switch (at, down_for) ->
            Faults.Schedule.Crash_restart { switch; at; down_for })
          (int_range 0 5)
          (pair (time 0 300) (time 1 100));
        map2
          (fun seed (start, len, rate) ->
            Faults.Schedule.Random_churn
              {
                seed;
                start;
                until = start + len;
                rate = float_of_int rate;
                mean_downtime = ms 20;
                links = [ 0; 1; 2; 3 ];
              })
          (int_range 0 1000)
          (triple (time 0 100) (time 1 400) (int_range 1 50));
      ]
  in
  list_size (int_range 0 8) item

let schedule_arbitrary = QCheck.make schedule_gen

let rec time_sorted = function
  | (t1, _) :: ((t2, _) :: _ as rest) -> t1 <= t2 && time_sorted rest
  | _ -> true

let prop_expand_deterministic =
  QCheck.Test.make ~count:200 ~name:"expand deterministic" schedule_arbitrary
    (fun sched ->
      Faults.Schedule.expand sched = Faults.Schedule.expand sched)

let prop_expand_sorted =
  QCheck.Test.make ~count:200 ~name:"expand time-sorted" schedule_arbitrary
    (fun sched -> time_sorted (Faults.Schedule.expand sched))

let prop_expand_idempotent =
  QCheck.Test.make ~count:200 ~name:"expand idempotent on one-shots"
    schedule_arbitrary (fun sched ->
      let timeline = Faults.Schedule.expand sched in
      let as_one_shots =
        List.map (fun (t, a) -> Faults.Schedule.At (t, a)) timeline
      in
      Faults.Schedule.expand as_one_shots = timeline)

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)

let test_driver_applies_actions () =
  let engine = Netsim.Engine.create () in
  let g = Topo.Build.linear 3 in
  let timeline =
    Faults.Schedule.expand
      [
        Faults.Schedule.At (ms 10, Faults.Schedule.Fail_link 0);
        Faults.Schedule.At (ms 30, Faults.Schedule.Restore_link 0);
        Faults.Schedule.Control_loss_window
          { from_ = ms 5; until = ms 25; loss = 0.4 };
      ]
  in
  let driver = Faults.Schedule.install ~engine ~graph:g timeline in
  Netsim.Engine.run_until engine (ms 20);
  Alcotest.(check bool) "link 0 dead mid-window" false
    (Topo.Graph.link_working g 0);
  Alcotest.(check (float 1e-9)) "loss active" 0.4
    (Faults.Schedule.control_loss driver);
  Netsim.Engine.run engine;
  Alcotest.(check bool) "link 0 restored" true (Topo.Graph.link_working g 0);
  Alcotest.(check (float 1e-9)) "loss reset" 0.0
    (Faults.Schedule.control_loss driver);
  Alcotest.(check int) "all injected" 4 (Faults.Schedule.injected driver);
  Alcotest.(check int) "none remaining" 0 (Faults.Schedule.remaining driver);
  Alcotest.(check int) "engine drained" 0 (Netsim.Engine.pending engine)

let test_driver_overlapping_faults () =
  (* The tentpole composition bug, exercised through the schedule
     layer: an explicit link fault overlapping a switch crash must
     survive the crash's restore. *)
  let engine = Netsim.Engine.create () in
  let g = Topo.Build.linear 3 in
  let timeline =
    Faults.Schedule.expand
      [
        Faults.Schedule.At (ms 10, Faults.Schedule.Fail_link 0);
        Faults.Schedule.Crash_restart { switch = 1; at = ms 20; down_for = ms 30 };
        Faults.Schedule.At (ms 40, Faults.Schedule.Restore_link 0);
      ]
  in
  let _driver = Faults.Schedule.install ~engine ~graph:g timeline in
  Netsim.Engine.run_until engine (ms 25);
  Alcotest.(check bool) "link 0 dead (explicit + crash)" false
    (Topo.Graph.link_working g 0);
  Alcotest.(check bool) "link 1 dead (crash)" false (Topo.Graph.link_working g 1);
  Netsim.Engine.run_until engine (ms 45);
  Alcotest.(check bool) "link 0 still dead: crash cause open" false
    (Topo.Graph.link_working g 0);
  Netsim.Engine.run engine;
  Alcotest.(check bool) "link 0 working after crash restore" true
    (Topo.Graph.link_working g 0);
  Alcotest.(check bool) "link 1 working after crash restore" true
    (Topo.Graph.link_working g 1)

let test_driver_cancel_drains () =
  let engine = Netsim.Engine.create () in
  let g = Topo.Build.linear 3 in
  let timeline =
    Faults.Schedule.expand
      [
        Faults.Schedule.Flap
          { link = 0; start = ms 10; until = s 10; down_for = ms 10; up_for = ms 10 };
      ]
  in
  let driver = Faults.Schedule.install ~engine ~graph:g timeline in
  Netsim.Engine.run_until engine (ms 35);
  Alcotest.(check bool) "some injected" true (Faults.Schedule.injected driver > 0);
  Alcotest.(check bool) "some remaining" true
    (Faults.Schedule.remaining driver > 0);
  let injected = Faults.Schedule.injected driver in
  let was_working = Topo.Graph.link_working g 0 in
  Faults.Schedule.cancel driver;
  Alcotest.(check int) "none remaining after cancel" 0
    (Faults.Schedule.remaining driver);
  (* The retired timers still fire, through the flap's last restore at
     10 s, and apply nothing. *)
  Netsim.Engine.run engine;
  Alcotest.(check int) "engine drained after cancel" 0
    (Netsim.Engine.pending engine);
  Alcotest.(check int) "clock at the last retired timer" (s 10)
    (Netsim.Engine.now engine);
  Alcotest.(check int) "no action applied after cancel" injected
    (Faults.Schedule.injected driver);
  Alcotest.(check bool) "link state untouched" was_working
    (Topo.Graph.link_working g 0);
  Alcotest.(check int) "still none remaining" 0
    (Faults.Schedule.remaining driver)

let test_driver_rejects_past () =
  let engine = Netsim.Engine.create () in
  let g = Topo.Build.linear 3 in
  Netsim.Engine.post engine ~delay:(ms 10) (fun () -> ());
  Netsim.Engine.run engine;
  Alcotest.check_raises "past action rejected"
    (Invalid_argument "Schedule.install: action in the past") (fun () ->
      ignore
        (Faults.Schedule.install ~engine ~graph:g
           [ (ms 5, Faults.Schedule.Fail_link 0) ]))

(* ------------------------------------------------------------------ *)
(* Churn runner                                                       *)

let churn_params seed =
  {
    Faults.Churn.default_params with
    schedule =
      [
        Faults.Schedule.Flap
          { link = 0; start = ms 100; until = s 1; down_for = ms 150; up_for = ms 150 };
        Faults.Schedule.Crash_restart { switch = 2; at = ms 300; down_for = ms 400 };
        Faults.Schedule.Control_loss_window
          { from_ = ms 200; until = ms 800; loss = 0.1 };
      ];
    duration = s 2;
    circuits = 4;
    seed;
  }

let test_churn_smoke () =
  let r = Faults.Churn.run ~graph:(Topo.Build.ring 6) (churn_params 42) in
  Alcotest.(check bool) "faults injected" true (r.Faults.Churn.faults_injected > 0);
  Alcotest.(check bool) "monitors saw transitions" true
    (r.Faults.Churn.transitions > 0);
  Alcotest.(check bool) "reconfigurations ran" true (r.Faults.Churn.reconfigs > 0);
  Alcotest.(check bool) "at least one converged" true
    (r.Faults.Churn.reconfigs_converged > 0);
  Alcotest.(check bool) "convergence time positive" true
    (r.Faults.Churn.convergence_mean_ms > 0.0);
  Alcotest.(check bool) "flow checks lossless" true r.Faults.Churn.flow_lossless;
  Alcotest.(check bool) "engine drained" true r.Faults.Churn.drained

let test_churn_deterministic () =
  let a = Faults.Churn.run ~graph:(Topo.Build.ring 6) (churn_params 42) in
  let b = Faults.Churn.run ~graph:(Topo.Build.ring 6) (churn_params 42) in
  Alcotest.(check bool) "identical results" true (a = b)

let churn_job seed =
  let p =
    {
      (churn_params seed) with
      schedule =
        Faults.Schedule.Random_churn
          {
            seed;
            start = ms 50;
            until = s 1;
            rate = 5.0;
            mean_downtime = ms 100;
            links = [ 0; 1; 2; 3 ];
          }
        :: (churn_params seed).Faults.Churn.schedule;
    }
  in
  Faults.Churn.run ~graph:(Topo.Build.ring 6) p

let test_churn_sweep_seq_par_identical () =
  let seeds = [ 1; 2; 3; 4 ] in
  let seq = Netsim.Sweep.map ~domains:1 ~seeds churn_job in
  let par = Netsim.Sweep.map ~domains:2 ~seeds churn_job in
  Alcotest.(check bool) "seq = par" true (seq = par)

(* ------------------------------------------------------------------ *)
(* Partition and heal                                                 *)

let partition_params =
  { Faults.Partition.default_params with circuits = 8; seed = 5 }

let test_separator_bisects () =
  let g = Topo.Build.src_lan () in
  let in_b, cut = Faults.Partition.find_separator g in
  let b = Array.fold_left (fun a x -> if x then a + 1 else a) 0 in_b in
  Alcotest.(check bool) "both sides populated" true
    (b > 0 && b < Topo.Graph.switch_count g);
  Alcotest.(check bool) "cut non-empty" true (cut <> []);
  List.iter (Topo.Graph.fail_link g) cut;
  (* Each side stays internally connected once the cut is down. *)
  let a_root = ref (-1) and b_root = ref (-1) in
  Array.iteri
    (fun s inb ->
      if inb && !b_root < 0 then b_root := s;
      if (not inb) && !a_root < 0 then a_root := s)
    in_b;
  let expect_side root want =
    Alcotest.(check int)
      (Printf.sprintf "component of %d" root)
      want
      (Topo.Graph.reachable_switches g root)
  in
  expect_side !a_root (Topo.Graph.switch_count g - b);
  expect_side !b_root b;
  List.iter (Topo.Graph.restore_link g) cut

let test_partition_split_and_heal () =
  let r =
    Faults.Partition.run ~graph:(Topo.Build.src_lan ()) partition_params
  in
  Alcotest.(check bool) "both sides converged while split" true
    r.Faults.Partition.split_converged;
  Alcotest.(check bool) "divergent tags while split" true
    r.Faults.Partition.divergent;
  Alcotest.(check bool) "heal converged" true r.Faults.Partition.heal_converged;
  Alcotest.(check bool) "heal agreement" true r.Faults.Partition.heal_agreement;
  Alcotest.(check bool) "heal topology correct" true
    r.Faults.Partition.heal_topology_correct;
  Alcotest.(check bool) "healed tag above both sides" true
    r.Faults.Partition.heal_reconciled;
  Alcotest.(check int) "no leaks after split gc" 0
    r.Faults.Partition.leaks_after_split_gc;
  Alcotest.(check int) "no leaks at end" 0 r.Faults.Partition.leaks_final;
  Alcotest.(check int) "no terminal readmit failures" 0
    r.Faults.Partition.readmit_failed;
  Alcotest.(check bool) "every circuit serving at the end" true
    r.Faults.Partition.all_served_at_end;
  Alcotest.(check bool) "no setup in flight" true r.Faults.Partition.drained;
  Alcotest.(check bool) "intra traffic mostly preserved" true
    (r.Faults.Partition.intra_preserved >= 0.9)

let test_partition_one_sided_heal () =
  (* Only the low-epoch side notices the restore: convergence then
     depends on the Reject path re-seeding its initiator above the
     quiescent high side. *)
  let r =
    Faults.Partition.run
      ~graph:(Topo.Build.src_lan ())
      { partition_params with one_sided_heal = true }
  in
  Alcotest.(check bool) "divergent while split" true
    r.Faults.Partition.divergent;
  Alcotest.(check bool) "heal converged via reject" true
    r.Faults.Partition.heal_converged;
  Alcotest.(check bool) "heal agreement" true r.Faults.Partition.heal_agreement;
  Alcotest.(check bool) "healed tag above both sides" true
    r.Faults.Partition.heal_reconciled

let test_partition_intra_reroute () =
  (* A graph where some same-side circuits route through the other
     side: the split breaks them, their side's reconfiguration reroutes
     them inside the component, and the loss is bounded by the reroute
     window — graceful degradation, not an outage until the heal. *)
  let graph () =
    let rng = Netsim.Rng.create 4 in
    let n = 6 + Netsim.Rng.int rng 5 in
    Topo.Build.random_connected ~rng ~switches:n ~extra_links:(n / 2)
  in
  let r =
    Faults.Partition.run ~graph:(graph ())
      { Faults.Partition.default_params with circuits = 20; seed = 2 }
  in
  Alcotest.(check bool) "some intra circuits crossed the cut" true
    (r.Faults.Partition.cells_lost_intra > 0.0);
  Alcotest.(check bool) "but were rerouted quickly" true
    (r.Faults.Partition.intra_preserved > 0.99);
  Alcotest.(check bool) "cross circuits lost the split window" true
    (r.Faults.Partition.cells_lost_cross > 100.0);
  Alcotest.(check bool) "heal converged" true r.Faults.Partition.heal_converged;
  Alcotest.(check int) "no leaks" 0 r.Faults.Partition.leaks_final;
  Alcotest.(check bool) "all served at end" true
    r.Faults.Partition.all_served_at_end

let test_partition_deterministic () =
  let run () =
    Faults.Partition.run ~graph:(Topo.Build.src_lan ()) partition_params
  in
  Alcotest.(check bool) "identical results" true (run () = run ())

let () =
  Alcotest.run "faults"
    [
      ( "schedule",
        [
          Alcotest.test_case "expand deterministic" `Quick
            test_expand_deterministic;
          Alcotest.test_case "flap expansion" `Quick test_expand_flap;
          Alcotest.test_case "crash + control window" `Quick
            test_expand_crash_and_window;
          QCheck_alcotest.to_alcotest prop_expand_deterministic;
          QCheck_alcotest.to_alcotest prop_expand_sorted;
          QCheck_alcotest.to_alcotest prop_expand_idempotent;
        ] );
      ( "driver",
        [
          Alcotest.test_case "applies actions" `Quick test_driver_applies_actions;
          Alcotest.test_case "overlapping faults compose" `Quick
            test_driver_overlapping_faults;
          Alcotest.test_case "cancel drains engine" `Quick
            test_driver_cancel_drains;
          Alcotest.test_case "rejects past actions" `Quick
            test_driver_rejects_past;
        ] );
      ( "churn",
        [
          Alcotest.test_case "smoke" `Quick test_churn_smoke;
          Alcotest.test_case "deterministic" `Quick test_churn_deterministic;
          Alcotest.test_case "sweep seq/par identical" `Quick
            test_churn_sweep_seq_par_identical;
        ] );
      ( "partition",
        [
          Alcotest.test_case "separator bisects" `Quick test_separator_bisects;
          Alcotest.test_case "split and heal" `Quick
            test_partition_split_and_heal;
          Alcotest.test_case "one-sided heal (reject path)" `Quick
            test_partition_one_sided_heal;
          Alcotest.test_case "intra circuits reroute, not die" `Quick
            test_partition_intra_reroute;
          Alcotest.test_case "deterministic" `Quick test_partition_deterministic;
        ] );
    ]
