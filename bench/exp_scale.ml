(* E34: the scale axis. Builds k-ary fat-trees across ~2 decades of
   switch count (k = 8/16/32/48/64 -> 80/320/1,280/2,880/5,120
   switches, 128/1,024/8,192/27,648/65,536 dual-homed hosts), then
   measures on each size:

   - topology construction time and resident memory (Gc + VmRSS);
   - a full global reconfiguration after an intra-pod cut, with
     payload-proportional line-card cost ([edge_cost] > 0) so the
     fabric-wide protocol's growing Report/Distribute payloads show up
     in simulated convergence time, not just message count;
   - hierarchical repair ([Reconfig.Hier]) on the same cut — pod-scoped,
     so participation and convergence stay flat as the fabric grows;
   - hierarchical repair on an inter-pod (aggregation-core) cut, which
     escalates to the global protocol;
   - a partitioned-run determinism check at the smallest size (the CI
     byte-compare covers the CLI path; this covers the library path).

   Results land in BENCH_scale.json.

   Usage: dune exec bench/exp_scale.exe [-- --smoke] [-- --out FILE] *)

(* Resident set size in kB, from /proc/self/status (0 if unreadable —
   non-Linux). *)
let vm_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmRSS:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> kb)
        else scan ()
    in
    let kb = scan () in
    close_in ic;
    kb

let ms t = float_of_int t /. 1e6

type repair_row = {
  strategy : string;
  converged : bool;
  correct : bool;
  participants : int;
  messages : int;
  elapsed_ms : float;
  wall_seconds : float;
}

type size_row = {
  k : int;
  switches : int;
  hosts : int;
  links : int;
  pods : int;
  build_seconds : float;
  heap_words : int;  (** live major-heap words after build *)
  rss_kb : int;  (** process RSS after build *)
  global : repair_row;  (** non-hierarchical repair of an intra-pod cut *)
  pod_local : repair_row;  (** Hier on the same intra-pod cut *)
  escalated : repair_row;  (** Hier on an inter-pod cut *)
}

(* Payload-proportional processing: 1 us of line-card work per edge in
   a Report/Distribute, on top of the flat 100 us per message. This is
   the term that scales with fabric size in the global protocol and
   with pod size in the scoped one. *)
let scale_params =
  {
    Reconfig.Runner.default_params with
    edge_cost = Netsim.Time.us 1;
    horizon = Netsim.Time.s 30;
  }

let detection = Netsim.Time.ms 100

let intra_pod_cut (_k : int) = 0  (* first edge-aggregation link of pod 0 *)
let inter_pod_cut k = k * k * k / 4  (* first aggregation-core link *)

let run_global ~k =
  let g, _pods = Topo.Build.fat_tree ~k in
  let (o : Reconfig.Runner.outcome), wall =
    Util.time (fun () ->
        Reconfig.Runner.run_after_failure ~params:scale_params
          ~detection_delay:detection g ~fail:(`Link (intra_pod_cut k)))
  in
  {
    strategy = "global";
    converged = o.converged;
    correct = o.topology_correct;
    participants = Topo.Graph.switch_count g;
    messages = o.messages;
    elapsed_ms = ms o.elapsed;
    wall_seconds = wall;
  }

let run_hier ~k ~fail =
  let g, pods = Topo.Build.fat_tree ~k in
  let (o : Reconfig.Hier.outcome), wall =
    Util.time (fun () ->
        Reconfig.Hier.repair ~params:scale_params ~detection_delay:detection g
          pods ~fail)
  in
  {
    strategy =
      (match o.strategy with
       | Reconfig.Hier.Pod_local p -> Printf.sprintf "pod-local:%d" p
       | Reconfig.Hier.Global -> "global-escalation");
    converged = o.converged;
    correct = o.correct;
    participants = o.participants;
    messages = o.messages;
    elapsed_ms = ms o.elapsed;
    wall_seconds = wall;
  }

let measure_size k =
  let (g, pods), build_seconds = Util.time (fun () -> Topo.Build.fat_tree ~k) in
  (* Touch the adjacency index so its cost is part of the build. *)
  ignore (Topo.Graph.switch_degree g 0);
  Gc.full_major ();
  let heap_words = (Gc.stat ()).Gc.live_words in
  let rss_kb = vm_rss_kb () in
  let row =
    {
      k;
      switches = Topo.Graph.switch_count g;
      hosts = Topo.Graph.host_count g;
      links = Topo.Graph.link_count g;
      pods = Topo.Pods.n_pods pods;
      build_seconds;
      heap_words;
      rss_kb;
      global = run_global ~k;
      pod_local = run_hier ~k ~fail:(intra_pod_cut k);
      escalated = run_hier ~k ~fail:(inter_pod_cut k);
    }
  in
  Printf.printf
    "k=%-2d  %4d sw %5d hosts %6d links  build %.3fs  rss %d kB\n%!" k
    row.switches row.hosts row.links build_seconds rss_kb;
  let p (r : repair_row) name =
    Printf.printf
      "  %-11s %-16s conv %b correct %b  %7d msgs  %4d participants  \
       %8.2f ms sim  %.3fs wall\n%!"
      name r.strategy r.converged r.correct r.messages r.participants
      r.elapsed_ms r.wall_seconds
  in
  p row.global "global";
  p row.pod_local "intra-pod";
  p row.escalated "inter-pod";
  row

(* Library-path determinism: the same partitioned run must produce the
   same outcome at every domain count. *)
let determinism_check ~k ~domains =
  let run domains =
    let g, _ = Topo.Build.fat_tree ~k in
    Reconfig.Runner.run_after_failure ~params:scale_params
      ~detection_delay:detection ~partitions:4 ~domains g
      ~fail:(`Link (intra_pod_cut k))
  in
  let base = run 1 in
  List.for_all (fun d -> run d = base) domains

let repair_json (r : repair_row) =
  let open Obs.Json in
  Obj
    [
      ("strategy", Str r.strategy);
      ("converged", Bool r.converged);
      ("correct", Bool r.correct);
      ("participants", Util.int r.participants);
      ("messages", Util.int r.messages);
      ("elapsed_ms", Num r.elapsed_ms);
      ("wall_seconds", Num r.wall_seconds);
    ]

let size_json r =
  let open Obs.Json in
  Obj
    [
      ("k", Util.int r.k);
      ("switches", Util.int r.switches);
      ("hosts", Util.int r.hosts);
      ("links", Util.int r.links);
      ("pods", Util.int r.pods);
      ("build_seconds", Num r.build_seconds);
      ("heap_words", Util.int r.heap_words);
      ("rss_kb", Util.int r.rss_kb);
      ("global", repair_json r.global);
      ("pod_local", repair_json r.pod_local);
      ("escalated", repair_json r.escalated);
    ]

(* Largest fabric against smallest; only with two sizes or more. *)
let headline rows =
  match rows with
  | first :: _ :: _ ->
    let last = List.nth rows (List.length rows - 1) in
    let open Obs.Json in
    [
      ( "headline",
        Obj
          [
            ( "switch_span",
              Str (Printf.sprintf "%dx" (last.switches / first.switches)) );
            ( "pod_local_elapsed_ratio_largest_vs_smallest",
              Num (last.pod_local.elapsed_ms /. first.pod_local.elapsed_ms) );
            ( "global_elapsed_ratio_largest_vs_smallest",
              Num (last.global.elapsed_ms /. first.global.elapsed_ms) );
            ( "global_excl_detection_ratio",
              Num
                ((last.global.elapsed_ms -. ms detection)
                /. (first.global.elapsed_ms -. ms detection)) );
            ("pod_local_messages_largest", Util.int last.pod_local.messages);
            ("global_messages_largest", Util.int last.global.messages);
          ] );
    ]
  | _ -> []

let () =
  let cli = Util.cli ~default_out:"BENCH_scale.json" in
  let ks = if cli.smoke then [ 8 ] else [ 8; 16; 32; 48; 64 ] in
  let rows = List.map measure_size ks in
  let domains_checked = [ 1; 2; 4 ] in
  let deterministic, det_wall =
    Util.time (fun () ->
        determinism_check ~k:8 ~domains:(List.tl domains_checked))
  in
  let cores = Netsim.Sweep.domains_available () in
  Printf.printf
    "determinism (k=8, 4 partitions, domains %s): identical %b (%.2fs, %d \
     cores available)\n%!"
    (String.concat "/" (List.map string_of_int domains_checked))
    deterministic det_wall cores;
  let open Obs.Json in
  Util.write_json cli ~schema:"an2-scale-v1"
    ([
       ("model", Str "fat-tree-reconfig-edge-cost-1us");
       ("detection_delay_ms", Num (ms detection));
       ("sizes", Arr (List.map size_json rows));
     ]
    @ headline rows
    @ [
        ( "determinism",
          Obj
            [
              ("partitions", Util.int 4);
              ("domains_checked", Arr (List.map Util.int domains_checked));
              ("outcome_identical", Bool deterministic);
              ("cores_available", Util.int cores);
              (* On a box with fewer cores than domains, extra domains
                 only add barrier overhead: determinism is still
                 asserted, speedup would be noise. Consumers (CI) must
                 not read a speedup off this file when this flag is
                 false. *)
              ( "speedup_meaningful",
                Bool (cores >= List.fold_left max 1 domains_checked) );
            ] );
      ]);
  if not deterministic then exit 1;
  if
    List.exists
      (fun r ->
        not
          (r.global.converged && r.global.correct && r.pod_local.converged
         && r.pod_local.correct && r.escalated.converged
         && r.escalated.correct))
      rows
  then exit 1
