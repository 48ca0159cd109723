(* Tests for the topology library: graphs, builders, spanning trees,
   shortest paths, and up*/down* routing. *)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Generator: a connected random switch graph. *)
let random_graph_gen =
  QCheck.make
    ~print:(fun (seed, n, extra) -> Printf.sprintf "seed=%d n=%d extra=%d" seed n extra)
    QCheck.Gen.(
      triple (int_range 0 10_000) (int_range 2 24) (int_range 0 20))

let build_random (seed, n, extra) =
  let rng = Netsim.Rng.create seed in
  Topo.Build.random_connected ~rng ~switches:n ~extra_links:extra

(* ------------------------------------------------------------------ *)
(* Graph *)

let test_graph_basic () =
  let g = Topo.Graph.create ~ports_per_switch:4 ~ports_per_host:2 () in
  Topo.Graph.add_switches g 2;
  let h = Topo.Graph.add_host g in
  let l1 = Topo.Graph.connect g (Switch 0) (Switch 1) in
  let l2 = Topo.Graph.connect g (Host h) (Switch 0) in
  Alcotest.(check int) "switches" 2 (Topo.Graph.switch_count g);
  Alcotest.(check int) "hosts" 1 (Topo.Graph.host_count g);
  Alcotest.(check int) "links" 2 (Topo.Graph.link_count g);
  Alcotest.(check (list (pair int int))) "neighbors" [ (1, l1) ]
    (Topo.Graph.switch_neighbors g 0);
  Alcotest.(check (list (pair int int))) "host links" [ (0, l2) ]
    (Topo.Graph.host_links g h);
  Alcotest.(check (list (pair int int))) "hosts of switch" [ (h, l2) ]
    (Topo.Graph.hosts_of_switch g 0)

let test_graph_ports_exhaust () =
  let g = Topo.Graph.create ~ports_per_switch:2 () in
  Topo.Graph.add_switches g 4;
  ignore (Topo.Graph.connect g (Switch 0) (Switch 1));
  ignore (Topo.Graph.connect g (Switch 0) (Switch 2));
  Alcotest.(check bool) "third connect fails" true
    (try
       ignore (Topo.Graph.connect g (Switch 0) (Switch 3));
       false
     with Failure _ -> true)

let test_graph_distinct_ports () =
  let g = Topo.Graph.create () in
  Topo.Graph.add_switches g 2;
  let l1 = Topo.Graph.link g (Topo.Graph.connect g (Switch 0) (Switch 1)) in
  let l2 = Topo.Graph.link g (Topo.Graph.connect g (Switch 0) (Switch 1)) in
  Alcotest.(check bool) "different ports" true
    (l1.Topo.Graph.a.port <> l2.Topo.Graph.a.port);
  Alcotest.(check bool) "different ports b" true
    (l1.Topo.Graph.b.port <> l2.Topo.Graph.b.port)

let test_graph_fail_restore () =
  let g = Topo.Build.linear 3 in
  let lid = 0 in
  Alcotest.(check bool) "connected" true (Topo.Graph.switch_connected g);
  Topo.Graph.fail_link g lid;
  Alcotest.(check bool) "disconnected" false (Topo.Graph.switch_connected g);
  Alcotest.(check int) "neighbors gone" 0
    (List.length (Topo.Graph.switch_neighbors g 0));
  Topo.Graph.restore_link g lid;
  Alcotest.(check bool) "reconnected" true (Topo.Graph.switch_connected g)

let test_graph_fail_switch () =
  let g = Topo.Build.star 4 in
  Topo.Graph.fail_switch g 0;
  Alcotest.(check int) "hub isolated" 1 (Topo.Graph.reachable_switches g 0);
  Alcotest.(check int) "leaf isolated" 1 (Topo.Graph.reachable_switches g 1);
  Topo.Graph.restore_switch g 0;
  Alcotest.(check bool) "restored" true (Topo.Graph.switch_connected g)

let test_overlapping_failures_compose () =
  (* The regression of record: an explicitly failed link must survive a
     crash-and-restart of its endpoint switch. *)
  let g = Topo.Build.linear 3 in
  let l01 = 0 and l12 = 1 in
  Topo.Graph.fail_link g l01;
  Topo.Graph.fail_switch g 1;
  Topo.Graph.restore_switch g 1;
  Alcotest.(check bool) "explicitly failed link stays dead" false
    (Topo.Graph.link_working g l01);
  Alcotest.(check bool) "crash-only link revived" true
    (Topo.Graph.link_working g l12);
  Topo.Graph.restore_link g l01;
  Alcotest.(check bool) "explicit restore completes the repair" true
    (Topo.Graph.link_working g l01)

let test_overlapping_switch_crashes () =
  (* Both endpoints of a link crash; the link works again only after
     both restart. *)
  let g = Topo.Build.linear 2 in
  Topo.Graph.fail_switch g 0;
  Topo.Graph.fail_switch g 1;
  Topo.Graph.restore_switch g 0;
  Alcotest.(check bool) "other endpoint still down" false
    (Topo.Graph.link_working g 0);
  Topo.Graph.restore_switch g 1;
  Alcotest.(check bool) "both restored" true (Topo.Graph.link_working g 0)

let test_restore_link_under_crash () =
  (* restore_link clears only the explicit cause; a crashed endpoint
     keeps the link down until the switch restarts. *)
  let g = Topo.Build.linear 2 in
  Topo.Graph.fail_switch g 0;
  Topo.Graph.fail_link g 0;
  Topo.Graph.restore_link g 0;
  Alcotest.(check bool) "crash cause remains" false (Topo.Graph.link_working g 0);
  Topo.Graph.restore_switch g 0;
  Alcotest.(check bool) "now working" true (Topo.Graph.link_working g 0)

let test_fail_restore_idempotent () =
  let g = Topo.Build.linear 2 in
  Topo.Graph.fail_link g 0;
  Topo.Graph.fail_link g 0;
  Topo.Graph.restore_link g 0;
  Alcotest.(check bool) "double fail, one restore" true
    (Topo.Graph.link_working g 0);
  Topo.Graph.fail_switch g 0;
  Topo.Graph.fail_switch g 0;
  Topo.Graph.restore_switch g 0;
  Alcotest.(check bool) "double crash, one restart" true
    (Topo.Graph.link_working g 0)

let test_failures_compose_random =
  (* Model check: apply a random fail/restore word to the real graph
     and to a per-link cause-set model; working sets must agree. *)
  qtest ~count:200 "cause-tracked fail/restore matches the set model"
    (QCheck.make
       ~print:(fun (seed, k) -> Printf.sprintf "seed=%d ops=%d" seed k)
       QCheck.Gen.(pair (int_range 0 10_000) (int_range 1 60)))
    (fun (seed, k) ->
      let rng = Netsim.Rng.create seed in
      let g = Topo.Build.src_lan () in
      let links = Topo.Graph.links g in
      let n_links = List.length links in
      let n_sw = Topo.Graph.switch_count g in
      (* model: per link, the set of active causes *)
      let model = Array.make n_links [] in
      let touching s =
        List.filter_map
          (fun (l : Topo.Graph.link) ->
            if l.a.node = Topo.Graph.Switch s || l.b.node = Topo.Graph.Switch s
            then Some l.link_id
            else None)
          links
      in
      let add lid c = if not (List.mem c model.(lid)) then model.(lid) <- c :: model.(lid) in
      let remove lid c = model.(lid) <- List.filter (( <> ) c) model.(lid) in
      let ok = ref true in
      for _ = 1 to k do
        (match Netsim.Rng.int rng 4 with
         | 0 ->
           let l = Netsim.Rng.int rng n_links in
           Topo.Graph.fail_link g l;
           add l `Explicit
         | 1 ->
           let l = Netsim.Rng.int rng n_links in
           Topo.Graph.restore_link g l;
           remove l `Explicit
         | 2 ->
           let s = Netsim.Rng.int rng n_sw in
           Topo.Graph.fail_switch g s;
           List.iter (fun l -> add l (`Crash s)) (touching s)
         | _ ->
           let s = Netsim.Rng.int rng n_sw in
           Topo.Graph.restore_switch g s;
           List.iter (fun l -> remove l (`Crash s)) (touching s));
        for l = 0 to n_links - 1 do
          if Topo.Graph.link_working g l <> (model.(l) = []) then ok := false
        done
      done;
      !ok)

let test_to_dot () =
  let g = Topo.Build.linear 3 in
  ignore (Topo.Graph.connect g (Host (Topo.Graph.add_host g)) (Switch 0));
  Topo.Graph.fail_link g 1;
  let dot = Topo.Graph.to_dot g in
  Alcotest.(check bool) "has graph header" true
    (String.length dot > 0 && String.sub dot 0 9 = "graph an2");
  let count needle =
    let n = ref 0 and i = ref 0 in
    let len = String.length needle in
    while !i + len <= String.length dot do
      if String.sub dot !i len = needle then incr n;
      incr i
    done;
    !n
  in
  Alcotest.(check int) "3 switch nodes" 3 (count "shape=box");
  Alcotest.(check int) "1 host node" 1 (count "shape=ellipse");
  Alcotest.(check int) "1 dead link dashed" 1 (count "style=dashed")

let test_other_end () =
  let g = Topo.Build.linear 2 in
  let l = Topo.Graph.link g 0 in
  let e = Topo.Graph.other_end l (Topo.Graph.Switch 0) in
  Alcotest.(check bool) "other side" true (e.Topo.Graph.node = Topo.Graph.Switch 1)

(* ------------------------------------------------------------------ *)
(* Builders *)

let link_count_works g =
  List.length
    (List.filter (fun l -> l.Topo.Graph.state = Topo.Graph.Working) (Topo.Graph.links g))

let test_builders_shapes () =
  Alcotest.(check int) "linear links" 5 (link_count_works (Topo.Build.linear 6));
  Alcotest.(check int) "ring links" 6 (link_count_works (Topo.Build.ring 6));
  Alcotest.(check int) "star links" 6 (link_count_works (Topo.Build.star 6));
  let t = Topo.Build.tree ~arity:2 ~depth:3 in
  Alcotest.(check int) "tree switches" 15 (Topo.Graph.switch_count t);
  Alcotest.(check int) "tree links" 14 (link_count_works t);
  let gr = Topo.Build.grid 3 4 in
  Alcotest.(check int) "grid switches" 12 (Topo.Graph.switch_count gr);
  Alcotest.(check int) "grid links" ((2 * 4) + (3 * 3)) (link_count_works gr);
  let to_ = Topo.Build.torus 3 3 in
  Alcotest.(check int) "torus links" 18 (link_count_works to_)

let test_builders_connected () =
  List.iter
    (fun g -> Alcotest.(check bool) "connected" true (Topo.Graph.switch_connected g))
    [
      Topo.Build.linear 5;
      Topo.Build.ring 5;
      Topo.Build.star 5;
      Topo.Build.tree ~arity:3 ~depth:2;
      Topo.Build.grid 4 4;
      Topo.Build.torus 3 4;
      Topo.Build.src_lan ();
    ]

let test_builder_validation () =
  Alcotest.(check bool) "ring 2 rejected" true
    (try ignore (Topo.Build.ring 2); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "torus 2 rejected" true
    (try ignore (Topo.Build.torus 2 5); false with Invalid_argument _ -> true)

let test_hypercube () =
  let g = Topo.Build.hypercube 4 in
  Alcotest.(check int) "switches" 16 (Topo.Graph.switch_count g);
  Alcotest.(check int) "links" (16 * 4 / 2) (link_count_works g);
  Alcotest.(check bool) "connected" true (Topo.Graph.switch_connected g);
  Alcotest.(check int) "diameter = dimension" 4 (Topo.Paths.diameter g);
  (* every switch has degree d *)
  for s = 0 to 15 do
    Alcotest.(check int) "degree" 4 (List.length (Topo.Graph.switch_neighbors g s))
  done

let test_leaf_spine () =
  let g = Topo.Build.leaf_spine ~spines:2 ~leaves:6 in
  Alcotest.(check int) "switches" 8 (Topo.Graph.switch_count g);
  Alcotest.(check int) "links" 12 (link_count_works g);
  Alcotest.(check bool) "connected" true (Topo.Graph.switch_connected g);
  Alcotest.(check int) "leaf-leaf distance" 2 (Topo.Paths.distances g ~src:2).(3);
  (* losing one spine keeps it connected *)
  Topo.Graph.fail_switch g 0;
  Alcotest.(check int) "survives spine loss" 7 (Topo.Graph.reachable_switches g 1)

let test_random_connected =
  qtest "random_connected is connected" random_graph_gen (fun params ->
      Topo.Graph.switch_connected (build_random params))

let test_src_lan_shape () =
  let g = Topo.Build.src_lan () in
  Alcotest.(check int) "switches" 10 (Topo.Graph.switch_count g);
  Alcotest.(check int) "hosts" 24 (Topo.Graph.host_count g);
  (* Every host is dual-homed as in Figure 1. *)
  for h = 0 to 23 do
    Alcotest.(check int) "dual homed" 2 (List.length (Topo.Graph.host_links g h))
  done;
  (* Killing any single switch leaves the rest connected. *)
  for s = 0 to 9 do
    Topo.Graph.fail_switch g s;
    let expected = 9 in
    let other = if s = 0 then 1 else 0 in
    Alcotest.(check int) "survives switch loss" expected
      (Topo.Graph.reachable_switches g other);
    Topo.Graph.restore_switch g s
  done

(* ------------------------------------------------------------------ *)
(* Spanning *)

let test_spanning_linear () =
  let g = Topo.Build.linear 5 in
  let t = Topo.Spanning.bfs g ~root:0 in
  Alcotest.(check int) "height" 4 (Topo.Spanning.height t);
  Alcotest.(check bool) "covers" true (Topo.Spanning.covers_all g t);
  Alcotest.(check (list int)) "children of 0" [ 1 ] (Topo.Spanning.children t 0);
  Alcotest.(check int) "parent of 3" 2 t.Topo.Spanning.parent.(3)

let test_spanning_star_height () =
  let g = Topo.Build.star 6 in
  let t = Topo.Spanning.bfs g ~root:0 in
  Alcotest.(check int) "height 1" 1 (Topo.Spanning.height t);
  Alcotest.(check int) "six children" 6 (List.length (Topo.Spanning.children t 0))

let test_spanning_properties =
  qtest "bfs tree sound" random_graph_gen (fun params ->
      let g = build_random params in
      let t = Topo.Spanning.bfs g ~root:0 in
      Topo.Spanning.covers_all g t
      && Array.for_all Fun.id
           (Array.mapi
              (fun s p ->
                if s = t.Topo.Spanning.root then p = s
                else
                  (* parent adjacency + depth increments *)
                  List.mem_assoc p (Topo.Graph.switch_neighbors g s)
                  && t.Topo.Spanning.depth.(s) = t.Topo.Spanning.depth.(p) + 1)
              t.Topo.Spanning.parent))

let test_spanning_partial () =
  let g = Topo.Build.linear 4 in
  Topo.Graph.fail_link g 1;
  let t = Topo.Spanning.bfs g ~root:0 in
  Alcotest.(check bool) "not covering" false (Topo.Spanning.covers_all g t);
  Alcotest.(check int) "unreachable depth" (-1) t.Topo.Spanning.depth.(3)

(* ------------------------------------------------------------------ *)
(* Paths *)

let test_paths_ring () =
  let g = Topo.Build.ring 6 in
  let d = Topo.Paths.distances g ~src:0 in
  Alcotest.(check (array int)) "ring distances" [| 0; 1; 2; 3; 2; 1 |] d;
  Alcotest.(check int) "diameter" 3 (Topo.Paths.diameter g)

let test_paths_route () =
  let g = Topo.Build.grid 3 3 in
  match Topo.Paths.route g ~src:0 ~dst:8 with
  | None -> Alcotest.fail "route must exist"
  | Some path ->
    Alcotest.(check int) "length" 5 (List.length path);
    Alcotest.(check int) "starts" 0 (List.hd path);
    Alcotest.(check int) "ends" 8 (List.nth path 4)

let test_paths_self () =
  let g = Topo.Build.ring 4 in
  Alcotest.(check (option (list int))) "self route" (Some [ 2 ])
    (Topo.Paths.route g ~src:2 ~dst:2)

let test_paths_unreachable () =
  let g = Topo.Build.linear 4 in
  Topo.Graph.fail_link g 1;
  Alcotest.(check (option (list int))) "no route" None
    (Topo.Paths.route g ~src:0 ~dst:3)

let test_route_is_path =
  qtest "routes are adjacent chains" random_graph_gen (fun params ->
      let g = build_random params in
      let n = Topo.Graph.switch_count g in
      let ok = ref true in
      for dst = 0 to n - 1 do
        match Topo.Paths.route g ~src:0 ~dst with
        | None -> ok := false
        | Some path ->
          let rec check = function
            | a :: (b :: _ as rest) ->
              if not (List.mem_assoc b (Topo.Graph.switch_neighbors g a)) then
                ok := false
              else check rest
            | _ -> ()
          in
          check path;
          if List.hd path <> 0 then ok := false;
          if List.nth path (List.length path - 1) <> dst then ok := false;
          if List.length path - 1 <> (Topo.Paths.distances g ~src:0).(dst) then
            ok := false
      done;
      !ok)

let test_mean_distance_linear () =
  let g = Topo.Build.linear 3 in
  (* pairs: 0-1:1 0-2:2 1-2:1 both directions -> mean 4/3 *)
  Alcotest.(check (float 1e-9)) "mean" (4.0 /. 3.0) (Topo.Paths.mean_distance g)

(* ------------------------------------------------------------------ *)
(* Updown *)

let orient g = Topo.Updown.orient g (Topo.Spanning.bfs g ~root:0)

let test_updown_orientation () =
  let g = Topo.Build.linear 3 in
  let o = orient g in
  Alcotest.(check bool) "toward root is up" true (Topo.Updown.goes_up o ~from:1 ~to_:0);
  Alcotest.(check bool) "away from root is down" false
    (Topo.Updown.goes_up o ~from:0 ~to_:1)

let test_updown_tie_by_id () =
  (* Ring of 5 rooted at 0 has depths 0,1,2,2,1: the 2-3 link joins
     equal depths, so up points at the higher-numbered switch. *)
  let g = Topo.Build.ring 5 in
  let o = orient g in
  Alcotest.(check bool) "2->3 up (tie, higher id)" true
    (Topo.Updown.goes_up o ~from:2 ~to_:3);
  Alcotest.(check bool) "3->2 down" false (Topo.Updown.goes_up o ~from:3 ~to_:2)

let test_updown_antisymmetry =
  qtest "goes_up antisymmetric" random_graph_gen (fun params ->
      let g = build_random params in
      let o = orient g in
      let ok = ref true in
      for s = 0 to Topo.Graph.switch_count g - 1 do
        List.iter
          (fun (s', _) ->
            if Topo.Updown.goes_up o ~from:s ~to_:s' = Topo.Updown.goes_up o ~from:s' ~to_:s
            then ok := false)
          (Topo.Graph.switch_neighbors g s)
      done;
      !ok)

let test_legal_path () =
  let g = Topo.Build.ring 6 in
  let o = orient g in
  (* 3 is the valley of the 6-ring rooted at 0: depth 0,1,2,3,2,1. *)
  Alcotest.(check bool) "down-up forbidden" false (Topo.Updown.legal_path o [ 2; 3; 4 ]);
  Alcotest.(check bool) "pure up ok" true (Topo.Updown.legal_path o [ 3; 2; 1; 0 ]);
  Alcotest.(check bool) "up-down ok" true (Topo.Updown.legal_path o [ 1; 0; 5 ]);
  Alcotest.(check bool) "trivial ok" true (Topo.Updown.legal_path o [ 4 ])

let test_updown_routes_legal =
  qtest "updown routes are legal and reach" random_graph_gen (fun params ->
      let g = build_random params in
      let o = orient g in
      let n = Topo.Graph.switch_count g in
      let ok = ref true in
      for dst = 0 to n - 1 do
        match Topo.Updown.route g o ~src:(n - 1) ~dst with
        | None -> ok := false  (* connected graph: must reach *)
        | Some path ->
          if not (Topo.Updown.legal_path o path) then ok := false;
          if List.hd path <> n - 1 then ok := false;
          if List.nth path (List.length path - 1) <> dst then ok := false
      done;
      !ok)

let test_updown_distance_dominates =
  qtest "updown >= unrestricted distance" random_graph_gen (fun params ->
      let g = build_random params in
      let o = orient g in
      let free = Topo.Paths.distances g ~src:0 in
      let restricted = Topo.Updown.distances g o ~src:0 in
      Array.for_all Fun.id (Array.mapi (fun i r -> r >= free.(i)) restricted))

let test_updown_ring_detour () =
  (* Crossing the valley must detour the other way around. *)
  let g = Topo.Build.ring 6 in
  let o = orient g in
  let d = Topo.Updown.distances g o ~src:2 in
  Alcotest.(check int) "2 to 4 detours" 4 d.(4);
  Alcotest.(check int) "unrestricted is 2" 2 (Topo.Paths.distances g ~src:2).(4)

let test_stretch_tree_is_one () =
  let g = Topo.Build.tree ~arity:2 ~depth:3 in
  let o = orient g in
  Alcotest.(check (float 1e-9)) "tree stretch 1" 1.0 (Topo.Updown.mean_stretch g o)

let test_stretch_ring_above_one () =
  let g = Topo.Build.ring 8 in
  let o = orient g in
  Alcotest.(check bool) "ring stretch > 1" true (Topo.Updown.mean_stretch g o > 1.0)

let test_dependency_acyclic_updown =
  qtest "updown dependencies acyclic" random_graph_gen (fun params ->
      let g = build_random params in
      Topo.Updown.dependency_acyclic g ~restricted:(Some (orient g)))

let test_dependency_cyclic_unrestricted () =
  List.iter
    (fun g ->
      Alcotest.(check bool) "cycle topology has cyclic deps" false
        (Topo.Updown.dependency_acyclic g ~restricted:None))
    [ Topo.Build.ring 4; Topo.Build.torus 3 3; Topo.Build.src_lan () ]

let test_dependency_acyclic_on_tree () =
  (* Trees have no cycles even unrestricted. *)
  Alcotest.(check bool) "tree acyclic unrestricted" true
    (Topo.Updown.dependency_acyclic (Topo.Build.tree ~arity:2 ~depth:3)
       ~restricted:None)

(* ------------------------------------------------------------------ *)
(* Fat-tree / Clos builders and pod metadata *)

let fat_tree_k_gen =
  QCheck.make
    ~print:(fun k -> Printf.sprintf "k=%d" k)
    QCheck.Gen.(map (fun i -> 2 * i) (int_range 2 8))

let test_fat_tree_counts =
  qtest ~count:50 "fat-tree closed-form counts" fat_tree_k_gen (fun k ->
      let g, pods = Topo.Build.fat_tree ~k in
      Topo.Graph.switch_count g = 5 * k * k / 4
      && Topo.Graph.host_count g = k * k * k / 4
      && Topo.Graph.link_count g = k * k * k
      && Topo.Pods.n_pods pods = k
      && List.length (Topo.Pods.core pods) = k / 2 * (k / 2)
      && Topo.Graph.switch_connected g)

let test_fat_tree_dual_homed =
  qtest ~count:50 "fat-tree hosts dual-homed to distinct same-pod ToRs"
    fat_tree_k_gen (fun k ->
      let g, pods = Topo.Build.fat_tree ~k in
      let ok = ref true in
      for h = 0 to Topo.Graph.host_count g - 1 do
        match Topo.Graph.host_links g h with
        | [ (s1, _); (s2, _) ] ->
          (* two working attachments, to different edge switches of
             one pod *)
          if s1 = s2 then ok := false;
          (match
             (Topo.Pods.pod_of_switch pods s1, Topo.Pods.pod_of_switch pods s2)
           with
           | Some p1, Some p2 ->
             if p1 <> p2 then ok := false;
             (* edge switches are the first k/2 ids of their pod *)
             if s1 mod k >= k / 2 || s2 mod k >= k / 2 then ok := false
           | _ -> ok := false)
        | _ -> ok := false
      done;
      !ok)

let test_fat_tree_updown_deadlock_free =
  qtest ~count:20 "up*/down* on fat-tree is deadlock-free" fat_tree_k_gen
    (fun k ->
      let g, _ = Topo.Build.fat_tree ~k in
      (* Root the spanning tree at a core switch, the natural "up". *)
      let o = Topo.Updown.orient g (Topo.Spanning.bfs g ~root:(k * k)) in
      Topo.Updown.dependency_acyclic g ~restricted:(Some o))

let test_clos_updown_deadlock_free () =
  List.iter
    (fun (radix, tiers) ->
      let g, _ = Topo.Build.folded_clos ~radix ~tiers in
      let root = Topo.Graph.switch_count g - 1 in
      let o = Topo.Updown.orient g (Topo.Spanning.bfs g ~root) in
      Alcotest.(check bool)
        (Printf.sprintf "clos:%d:%d acyclic" radix tiers)
        true
        (Topo.Updown.dependency_acyclic g ~restricted:(Some o)))
    [ (4, 2); (8, 2); (4, 3); (8, 3) ]

let test_partition_balance_on_pods () =
  (* With parts = pod count and 4 | k, the switch count divides evenly
     and the partitioner must balance to the switch. *)
  List.iter
    (fun k ->
      let g, pods = Topo.Build.fat_tree ~k in
      let parts = Topo.Pods.n_pods pods in
      let part = Topo.Partition.assign g ~parts in
      let sizes = Array.make parts 0 in
      Array.iter (fun p -> sizes.(p) <- sizes.(p) + 1) part;
      let mn = Array.fold_left min max_int sizes in
      let mx = Array.fold_left max 0 sizes in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d balanced +-1 (min %d max %d)" k mn mx)
        true
        (mx - mn <= 1))
    [ 4; 8 ]

(* Exact assignments, one digit per switch. The growth pops its queue
   in (distance, insertion) order, so any change of tie-breaking moves
   a switch; the ring and the zero-latency graph make most pops ties. *)
let test_partition_assignments_pinned () =
  let digits part =
    String.concat "" (Array.to_list (Array.map string_of_int part))
  in
  let check name g parts expected =
    Alcotest.(check string)
      (Printf.sprintf "%s parts=%d" name parts)
      expected
      (digits (Topo.Partition.assign g ~parts))
  in
  let fat4, _ = Topo.Build.fat_tree ~k:4 and fat8, _ = Topo.Build.fat_tree ~k:8 in
  check "fat_tree k=4" fat4 2 "00001111110111010000";
  check "fat_tree k=4" fat4 4 "00001111222233330123";
  check "fat_tree k=4" fat4 8 "04001511262237334567";
  check "fat_tree k=8" fat8 2
    "00000000111111111111000111110001111100011111000111110011111100110000000000000000";
  check "fat_tree k=8" fat8 4
    "00000000111111112222222233333333111123213232323123232321323232310000000000001111";
  check "fat_tree k=8" fat8 8
    "00000000111111112222222233333333444444445555555566666666777777770011223344556677";
  let lan = Topo.Build.src_lan () in
  check "src_lan" lan 3 "0120001112";
  check "src_lan" lan 4 "0123001122";
  let ring = Topo.Build.ring 12 in
  check "ring 12" ring 3 "002221111200";
  check "ring 12" ring 5 "042221113330";
  let zero = Topo.Graph.create () in
  Topo.Graph.add_switches zero 6;
  List.iter
    (fun (a, b, latency) ->
      ignore (Topo.Graph.connect ~latency zero (Switch a) (Switch b)))
    [ (0, 1, 0); (1, 2, 0); (2, 3, 5); (3, 4, 0); (4, 5, 2); (5, 0, 0) ];
  check "zero-latency links" zero 2 "001110";
  check "zero-latency links" zero 3 "022110";
  let isolated = Topo.Build.linear 4 in
  ignore (Topo.Graph.add_switch isolated);
  check "isolated switch" isolated 2 "00011";
  check "isolated switch" isolated 3 "00221";
  check "parts > switches" (Topo.Build.linear 3) 8 "021"

let test_pods_scope () =
  let k = 4 in
  let g, pods = Topo.Build.fat_tree ~k in
  let band = k * k * k / 4 in
  Alcotest.(check bool) "edge-agg link is pod-scoped" true
    (Topo.Pods.scope_of_link pods g 0 = Topo.Pods.Pod 0);
  Alcotest.(check bool) "agg-core link is global" true
    (Topo.Pods.scope_of_link pods g band = Topo.Pods.Global);
  Alcotest.(check bool) "host attachment inherits the pod" true
    (Topo.Pods.scope_of_link pods g (2 * band) = Topo.Pods.Pod 0);
  Alcotest.(check int) "pod 0 has k members" k
    (List.length (Topo.Pods.members pods 0));
  Alcotest.(check bool) "core switch has no pod" true
    (Topo.Pods.pod_of_switch pods (k * k) = None)

(* ------------------------------------------------------------------ *)
(* SoA Graph vs the retained reference implementation *)

(* Every observer of the SoA graph against the reference. The reference
   has no [switch_link], [switch_degree], [first_host_link] or iterator,
   so those are derived from its sorted lists: the lowest-id link to a
   neighbor is the first pair naming it. *)
let graph_agrees g r =
  let ok = ref true in
  let check b = if not b then ok := false in
  check (Topo.Graph.switch_count g = Oracle.Graph_reference.switch_count r);
  check (Topo.Graph.host_count g = Oracle.Graph_reference.host_count r);
  check (Topo.Graph.link_count g = Oracle.Graph_reference.link_count r);
  check
    (Topo.Graph.switch_connected g = Oracle.Graph_reference.switch_connected r);
  for s = 0 to Topo.Graph.switch_count g - 1 do
    let nbrs = Oracle.Graph_reference.switch_neighbors r s in
    check (Topo.Graph.switch_neighbors g s = nbrs);
    check
      (Topo.Graph.hosts_of_switch g s = Oracle.Graph_reference.hosts_of_switch r s);
    check
      (Topo.Graph.reachable_switches g s
      = Oracle.Graph_reference.reachable_switches r s);
    check (Topo.Graph.switch_degree g s = List.length nbrs);
    for s' = 0 to Topo.Graph.switch_count g - 1 do
      check
        (Topo.Graph.switch_link g s s'
        = Option.map snd (List.find_opt (fun (o, _) -> o = s') nbrs))
    done;
    let hosts = ref [] in
    Topo.Graph.iter_hosts_of_switch g s (fun h l -> hosts := (h, l) :: !hosts);
    check (List.rev !hosts = Oracle.Graph_reference.hosts_of_switch r s)
  done;
  for h = 0 to Topo.Graph.host_count g - 1 do
    let links = Oracle.Graph_reference.host_links r h in
    check (Topo.Graph.host_links g h = links);
    check
      (Topo.Graph.first_host_link g h
      = match links with (_, l) :: _ -> l | [] -> -1)
  done;
  for l = 0 to Topo.Graph.link_count g - 1 do
    check (Topo.Graph.link_working g l = Oracle.Graph_reference.link_working r l);
    let a = Topo.Graph.link g l and b = Oracle.Graph_reference.link r l in
    let end_eq (x : Topo.Graph.endpoint) (y : Oracle.Graph_reference.endpoint) =
      x.port = y.port
      && (match (x.node, y.node) with
          | Topo.Graph.Switch i, Oracle.Graph_reference.Switch j
          | Topo.Graph.Host i, Oracle.Graph_reference.Host j -> i = j
          | _ -> false)
    in
    check
      (a.link_id = b.link_id && a.latency = b.latency && end_eq a.a b.a
     && end_eq a.b b.b
      && (a.state = Topo.Graph.Working) = (b.state = Oracle.Graph_reference.Working))
  done;
  !ok

(* Drive both implementations through the same random op sequence and
   demand every observer agrees after every op, and once per case on a
   snapshot round trip, which rebuilds the byte table and the CSR.
   Connects avoid self-loops (the two implementations allocate the two
   ports of a self-loop in a different order; no builder creates one). *)
let test_graph_differential =
  qtest ~count:200 "SoA graph == reference graph"
    (QCheck.make
       ~print:(fun (seed, k) -> Printf.sprintf "seed=%d ops=%d" seed k)
       QCheck.Gen.(pair (int_range 0 100_000) (int_range 1 80)))
    (fun (seed, k) ->
      let rng = Netsim.Rng.create seed in
      let g = Topo.Graph.create ~ports_per_switch:5 ~ports_per_host:2 () in
      let r =
        Oracle.Graph_reference.create ~ports_per_switch:5 ~ports_per_host:2 ()
      in
      Topo.Graph.add_switches g 2;
      Oracle.Graph_reference.add_switches r 2;
      let ok = ref true in
      let check b = if not b then ok := false in
      for _ = 1 to k do
        (match Netsim.Rng.int rng 8 with
         | 0 ->
           Topo.Graph.add_switches g 1;
           Oracle.Graph_reference.add_switches r 1
         | 1 -> check (Topo.Graph.add_host g = Oracle.Graph_reference.add_host r)
         | 2 | 3 ->
           let n = Topo.Graph.switch_count g in
           let a = Netsim.Rng.int rng n in
           let b = (a + 1 + Netsim.Rng.int rng (max 1 (n - 1))) mod n in
           if a <> b then begin
             let c1 =
               try
                 Some (Topo.Graph.connect g (Switch a) (Switch b))
               with Failure _ -> None
             in
             let c2 =
               try
                 Some (Oracle.Graph_reference.connect r (Switch a) (Switch b))
               with Failure _ -> None
             in
             check (c1 = c2)
           end
         | 4 ->
           if Topo.Graph.host_count g > 0 then begin
             let h = Netsim.Rng.int rng (Topo.Graph.host_count g) in
             let s = Netsim.Rng.int rng (Topo.Graph.switch_count g) in
             let c1 =
               try Some (Topo.Graph.connect g (Host h) (Switch s))
               with Failure _ -> None
             in
             let c2 =
               try Some (Oracle.Graph_reference.connect r (Host h) (Switch s))
               with Failure _ -> None
             in
             check (c1 = c2)
           end
         | 5 ->
           if Topo.Graph.link_count g > 0 then begin
             let l = Netsim.Rng.int rng (Topo.Graph.link_count g) in
             Topo.Graph.fail_link g l;
             Oracle.Graph_reference.fail_link r l
           end
         | 6 ->
           if Topo.Graph.link_count g > 0 then begin
             let l = Netsim.Rng.int rng (Topo.Graph.link_count g) in
             Topo.Graph.restore_link g l;
             Oracle.Graph_reference.restore_link r l
           end
         | _ ->
           let s = Netsim.Rng.int rng (Topo.Graph.switch_count g) in
           if Netsim.Rng.int rng 2 = 0 then begin
             Topo.Graph.fail_switch g s;
             Oracle.Graph_reference.fail_switch r s
           end
           else begin
             Topo.Graph.restore_switch g s;
             Oracle.Graph_reference.restore_switch r s
           end);
        (* Observers must agree after every op. *)
        check (graph_agrees g r)
      done;
      check (graph_agrees (Topo.Graph.restore (Topo.Graph.save g)) r);
      !ok)

(* ------------------------------------------------------------------ *)
(* The route kernel: allocation and a differential against the old BFS *)

(* Minor words allocated by [f ()]. The closure is built by the caller
   before the first read, so only [f]'s own allocation is counted. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Words [f ()] allocates beyond its result's own blocks — 0 when it
   allocates nothing but what it returns. *)
let words_beyond_result f =
  let res = ref (Obj.repr 0) in
  let w = minor_words (fun () -> res := Obj.repr (f ())) in
  w -. float_of_int (Obj.reachable_words !res)

let test_route_kernel_allocation () =
  let g, _ = Topo.Build.fat_tree ~k:8 in
  let net = An2.Network.create g in
  let n = Topo.Graph.switch_count g and nh = Topo.Graph.host_count g in
  let sink = ref 0 in
  let visit a b = sink := !sink + a + b in
  (* Warm up: the CSR and the route scratch are built on first use. *)
  ignore (Topo.Paths.route g ~src:0 ~dst:(n - 1));
  let zero name f = Alcotest.(check (float 0.)) name 0. (minor_words f) in
  zero "iter_switch_neighbors" (fun () ->
      for s = 0 to n - 1 do
        Topo.Graph.iter_switch_neighbors g s visit
      done);
  zero "iter_hosts_of_switch" (fun () ->
      for s = 0 to n - 1 do
        Topo.Graph.iter_hosts_of_switch g s visit
      done);
  zero "iter_host_links" (fun () ->
      for h = 0 to nh - 1 do
        Topo.Graph.iter_host_links g h visit
      done);
  zero "switch_degree" (fun () ->
      for s = 0 to n - 1 do
        sink := !sink + Topo.Graph.switch_degree g s
      done);
  let only_result name f =
    Alcotest.(check (float 0.)) name 0. (words_beyond_result f)
  in
  (* The predicate search: the closure and its [Some] are built here,
     outside the measurement, as a caller holding one would. *)
  let blocked = Array.init (Topo.Graph.link_count g) (fun l -> l mod 5 = 0) in
  let usable = Some (fun lid -> not blocked.(lid)) in
  for s = 0 to n - 1 do
    for s' = 0 to n - 1 do
      only_result "switch_link" (fun () -> Topo.Graph.switch_link g s s');
      only_result "Paths.route" (fun () -> Topo.Paths.route g ~src:s ~dst:s');
      only_result "Paths.route ~usable" (fun () ->
          Topo.Paths.route ?usable g ~src:s ~dst:s');
      only_result "Paths.route_links ~usable" (fun () ->
          Topo.Paths.route_links ?usable g ~src:s ~dst:s' ~tail:[])
    done
  done;
  for h = 0 to nh - 1 do
    only_result "host_attachment" (fun () -> An2.Network.host_attachment net h)
  done

(* The full-exhaustion list BFS that [Topo.Paths.route] replaced, kept
   as the oracle; the only edit is the [usable] link filter, applied
   where the capacity search applied its headroom test. *)
let oracle_route ?(usable = fun _ -> true) g ~src ~dst =
  let n = Topo.Graph.switch_count g in
  let prev = Array.make n (-1) in
  let dist = Array.make n (-1) in
  dist.(src) <- 0;
  let queue = Queue.create () in
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    List.iter
      (fun (s', lid) ->
        if dist.(s') = -1 && usable lid then begin
          dist.(s') <- dist.(s) + 1;
          prev.(s') <- s;
          Queue.add s' queue
        end)
      (Topo.Graph.switch_neighbors g s)
  done;
  if src = dst then Some [ src ]
  else if dist.(dst) = -1 then None
  else begin
    let rec walk acc s = if s = src then src :: acc else walk (s :: acc) prev.(s) in
    Some (walk [] dst)
  end

(* A random fail/restore word over links and switches. *)
let churn rng g steps =
  let nl = Topo.Graph.link_count g and ns = Topo.Graph.switch_count g in
  for _ = 1 to steps do
    match Netsim.Rng.int rng 4 with
    | 0 -> Topo.Graph.fail_link g (Netsim.Rng.int rng nl)
    | 1 -> Topo.Graph.restore_link g (Netsim.Rng.int rng nl)
    | 2 -> Topo.Graph.fail_switch g (Netsim.Rng.int rng ns)
    | _ -> Topo.Graph.restore_switch g (Netsim.Rng.int rng ns)
  done

(* A random per-link predicate: each link usable with probability 3/4. *)
let random_usable rng g =
  let ok = Array.init (Topo.Graph.link_count g) (fun _ -> Netsim.Rng.int rng 4 > 0) in
  fun lid -> ok.(lid)

(* Whether [links] are the links a search may answer with for [path]:
   each working, passing [usable] and joining its two consecutive
   switches; without [usable], the lowest-id working link between them,
   which [switch_link] names. *)
let links_fit ?usable g path links =
  let joins lid a b =
    match ((Topo.Graph.link g lid).a.node, (Topo.Graph.link g lid).b.node) with
    | Switch x, Switch y -> (x = a && y = b) || (x = b && y = a)
    | _ -> false
  in
  let rec fit = function
    | a :: (b :: _ as rest), lid :: lids ->
      Topo.Graph.link_working g lid
      && joins lid a b
      && (match usable with
          | Some u -> u lid
          | None -> Topo.Graph.switch_link g a b = Some lid)
      && fit (rest, lids)
    | [ _ ], [] -> true
    | _ -> false
  in
  fit (path, links)

(* Every ordered pair, self pairs and unreachable pairs included. The
   link search must find the oracle's path, with fitting links before
   its tail. *)
let all_pairs_agree ?usable g =
  let n = Topo.Graph.switch_count g in
  let ok = ref true in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      let expected = oracle_route ?usable g ~src ~dst in
      if Topo.Paths.route ?usable g ~src ~dst <> expected then ok := false;
      match Topo.Paths.route_links ?usable g ~src ~dst ~tail:[ -1 ] with
      | None -> if expected <> None then ok := false
      | Some (path, links) -> (
        match List.rev links with
        | -1 :: crossed ->
          if Some path <> expected || not (links_fit ?usable g path (List.rev crossed))
          then ok := false
        | _ -> ok := false)
    done
  done;
  !ok

(* A parallel twin for [k] random switch-to-switch links, where both
   ends have a free port. *)
let add_twins rng g k =
  let nl = Topo.Graph.link_count g in
  for _ = 1 to k do
    match Topo.Graph.link g (Netsim.Rng.int rng nl) with
    | { a = { node = Switch x; _ }; b = { node = Switch y; _ }; _ } -> (
      try ignore (Topo.Graph.connect g (Switch x) (Switch y)) with Failure _ -> ())
    | _ -> ()
  done

let test_route_differential =
  qtest ~count:150 "Paths.route == full-exhaustion BFS under churn"
    (QCheck.make
       ~print:(fun ((seed, n, extra), steps) ->
         Printf.sprintf "seed=%d n=%d extra=%d churn=%d" seed n extra steps)
       QCheck.Gen.(
         pair (triple (int_range 0 10_000) (int_range 2 24) (int_range 0 20))
           (int_range 0 30)))
    (fun (((seed, _, extra) as params), steps) ->
      let g = build_random params in
      let rng = Netsim.Rng.create (seed + 1) in
      add_twins rng g (1 + (extra / 4));
      let ok = ref (all_pairs_agree g) in
      for _ = 1 to 3 do
        churn rng g steps;
        let usable = random_usable rng g in
        ok := !ok && all_pairs_agree g && all_pairs_agree ~usable g
      done;
      !ok)

(* The old capacity route: attachments from [host_links], the
   capacity-filtered oracle BFS, and the unfiltered one to tell "no
   route" from "no capacity". Links are expanded hop by hop with the
   old [List.find_opt] lookup. *)
let oracle_capacity bwc g ~src_host ~dst_host ~cells =
  let module B = An2.Bandwidth_central in
  match (Topo.Graph.host_links g src_host, Topo.Graph.host_links g dst_host) with
  | [], _ | _, [] -> Error B.No_route
  | (a, src_link) :: _, (b, dst_link) :: _ ->
    if B.headroom bwc src_link < cells || B.headroom bwc dst_link < cells then
      Error B.No_capacity
    else begin
      let usable lid = B.headroom bwc lid >= cells in
      match oracle_route ~usable g ~src:a ~dst:b with
      | None ->
        if oracle_route g ~src:a ~dst:b = None then Error B.No_route
        else Error B.No_capacity
      | Some switches ->
        let rec hops = function
          | x :: (y :: _ as rest) ->
            snd (List.find (fun (s, _) -> s = y) (Topo.Graph.switch_neighbors g x))
            :: hops rest
          | _ -> []
        in
        Ok (switches, (src_link :: hops switches) @ [ dst_link ])
    end

let test_capacity_route_differential =
  qtest ~count:100 "capacity_route == oracle under churn and reservations"
    (QCheck.make
       ~print:(fun (seed, topo) -> Printf.sprintf "seed=%d topo=%d" seed topo)
       QCheck.Gen.(pair (int_range 0 10_000) (int_range 0 1)))
    (fun (seed, topo) ->
      let g = if topo = 0 then Topo.Build.src_lan () else fst (Topo.Build.fat_tree ~k:4) in
      let net = An2.Network.create ~frame:8 g in
      let bwc = An2.Bandwidth_central.create net in
      let rng = Netsim.Rng.create seed in
      let nh = Topo.Graph.host_count g and nl = Topo.Graph.link_count g in
      let live = ref [] and ok = ref true in
      for _ = 1 to 60 do
        (match Netsim.Rng.int rng 6 with
         | 0 -> churn rng g 1
         | 1 ->
           (* A random reservation outside any circuit. *)
           let link = Netsim.Rng.int rng nl in
           let cells = 1 + Netsim.Rng.int rng 3 in
           if An2.Bandwidth_central.headroom bwc link >= cells then
             An2.Bandwidth_central.inject_leak bwc ~link ~cells
         | 2 -> (
           match !live with
           | vc :: rest ->
             live := rest;
             An2.Bandwidth_central.release bwc vc
           | [] -> ())
         | _ -> ());
        let src_host = Netsim.Rng.int rng nh in
        (* Same host now and then: src = dst at the switch level. *)
        let dst_host = if Netsim.Rng.int rng 8 = 0 then src_host else Netsim.Rng.int rng nh in
        let cells = 1 + Netsim.Rng.int rng 4 in
        let expected = oracle_capacity bwc g ~src_host ~dst_host ~cells in
        match (An2.Bandwidth_central.request bwc ~src_host ~dst_host ~cells, expected) with
        | Ok vc, Ok (switches, links) ->
          live := vc :: !live;
          if vc.An2.Network.switches <> switches || vc.An2.Network.links <> links then
            ok := false
        | Error d, Error d' -> if d <> d' then ok := false
        | _ -> ok := false
      done;
      !ok)

let test_route_domains_private () =
  (* Two domains search at once, each on its own graph with its own
     predicates; a shared scratch would corrupt one side's stamps. *)
  let search seed () =
    let g = build_random (seed, 20 + seed, 15) in
    let rng = Netsim.Rng.create seed in
    let ok = ref true in
    for _ = 1 to 40 do
      let usable = random_usable rng g in
      ok := !ok && all_pairs_agree ~usable g
    done;
    !ok
  in
  let d1 = Domain.spawn (search 1) and d2 = Domain.spawn (search 2) in
  Alcotest.(check bool) "domain 1 agrees" true (Domain.join d1);
  Alcotest.(check bool) "domain 2 agrees" true (Domain.join d2)

let () =
  Alcotest.run "topo"
    [
      ( "graph",
        [
          Alcotest.test_case "basic" `Quick test_graph_basic;
          Alcotest.test_case "ports exhaust" `Quick test_graph_ports_exhaust;
          Alcotest.test_case "distinct ports" `Quick test_graph_distinct_ports;
          Alcotest.test_case "fail/restore link" `Quick test_graph_fail_restore;
          Alcotest.test_case "fail switch" `Quick test_graph_fail_switch;
          Alcotest.test_case "overlapping failures compose" `Quick
            test_overlapping_failures_compose;
          Alcotest.test_case "overlapping switch crashes" `Quick
            test_overlapping_switch_crashes;
          Alcotest.test_case "restore under crash" `Quick
            test_restore_link_under_crash;
          Alcotest.test_case "fail/restore idempotent" `Quick
            test_fail_restore_idempotent;
          test_failures_compose_random;
          Alcotest.test_case "other_end" `Quick test_other_end;
          Alcotest.test_case "to_dot" `Quick test_to_dot;
        ] );
      ( "builders",
        [
          Alcotest.test_case "shapes" `Quick test_builders_shapes;
          Alcotest.test_case "connected" `Quick test_builders_connected;
          Alcotest.test_case "validation" `Quick test_builder_validation;
          Alcotest.test_case "hypercube" `Quick test_hypercube;
          Alcotest.test_case "leaf-spine" `Quick test_leaf_spine;
          test_random_connected;
          Alcotest.test_case "src_lan shape" `Quick test_src_lan_shape;
        ] );
      ( "spanning",
        [
          Alcotest.test_case "linear" `Quick test_spanning_linear;
          Alcotest.test_case "star height" `Quick test_spanning_star_height;
          test_spanning_properties;
          Alcotest.test_case "partial coverage" `Quick test_spanning_partial;
        ] );
      ( "paths",
        [
          Alcotest.test_case "ring distances" `Quick test_paths_ring;
          Alcotest.test_case "grid route" `Quick test_paths_route;
          Alcotest.test_case "self route" `Quick test_paths_self;
          Alcotest.test_case "unreachable" `Quick test_paths_unreachable;
          test_route_is_path;
          Alcotest.test_case "mean distance" `Quick test_mean_distance_linear;
        ] );
      ( "updown",
        [
          Alcotest.test_case "orientation" `Quick test_updown_orientation;
          Alcotest.test_case "tie by id" `Quick test_updown_tie_by_id;
          test_updown_antisymmetry;
          Alcotest.test_case "legal_path" `Quick test_legal_path;
          test_updown_routes_legal;
          test_updown_distance_dominates;
          Alcotest.test_case "ring detour" `Quick test_updown_ring_detour;
          Alcotest.test_case "tree stretch = 1" `Quick test_stretch_tree_is_one;
          Alcotest.test_case "ring stretch > 1" `Quick test_stretch_ring_above_one;
          test_dependency_acyclic_updown;
          Alcotest.test_case "unrestricted cyclic" `Quick
            test_dependency_cyclic_unrestricted;
          Alcotest.test_case "tree acyclic" `Quick test_dependency_acyclic_on_tree;
        ] );
      ( "scale",
        [
          test_fat_tree_counts;
          test_fat_tree_dual_homed;
          test_fat_tree_updown_deadlock_free;
          Alcotest.test_case "clos up*/down* acyclic" `Quick
            test_clos_updown_deadlock_free;
          Alcotest.test_case "partition balance on pods" `Quick
            test_partition_balance_on_pods;
          Alcotest.test_case "partition assignments pinned" `Quick
            test_partition_assignments_pinned;
          Alcotest.test_case "pod link scopes" `Quick test_pods_scope;
          test_graph_differential;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "allocates only results" `Quick
            test_route_kernel_allocation;
          test_route_differential;
          test_capacity_route_differential;
          Alcotest.test_case "scratch is domain-local" `Quick
            test_route_domains_private;
        ] );
    ]
