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

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

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
    time_it (fun () ->
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
    time_it (fun () ->
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
  let (g, pods), build_seconds = time_it (fun () -> Topo.Build.fat_tree ~k) in
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

let write_json ~file ~smoke ~cores ~domains_checked ~deterministic rows =
  let oc = open_out file in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"an2-scale-v1\",\n";
  p "  \"smoke\": %b,\n" smoke;
  p "  \"model\": \"fat-tree-reconfig-edge-cost-1us\",\n";
  p "  \"detection_delay_ms\": %.1f,\n" (ms detection);
  p "  \"sizes\": [\n";
  let repair_obj name (r : repair_row) last =
    p
      "      \"%s\": { \"strategy\": \"%s\", \"converged\": %b, \
       \"correct\": %b, \"participants\": %d, \"messages\": %d, \
       \"elapsed_ms\": %.3f, \"wall_seconds\": %.3f }%s\n"
      name r.strategy r.converged r.correct r.participants r.messages
      r.elapsed_ms r.wall_seconds
      (if last then "" else ",")
  in
  List.iteri
    (fun i r ->
      p "    { \"k\": %d, \"switches\": %d, \"hosts\": %d, \"links\": %d, \
         \"pods\": %d,\n"
        r.k r.switches r.hosts r.links r.pods;
      p "      \"build_seconds\": %.4f, \"heap_words\": %d, \"rss_kb\": %d,\n"
        r.build_seconds r.heap_words r.rss_kb;
      repair_obj "global" r.global false;
      repair_obj "pod_local" r.pod_local false;
      repair_obj "escalated" r.escalated true;
      p "    }%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ],\n";
  (match rows with
   | first :: _ :: _ ->
     let last = List.nth rows (List.length rows - 1) in
     p "  \"headline\": {\n";
     p "    \"switch_span\": \"%dx\",\n" (last.switches / first.switches);
     p "    \"pod_local_elapsed_ratio_largest_vs_smallest\": %.3f,\n"
       (last.pod_local.elapsed_ms /. first.pod_local.elapsed_ms);
     p "    \"global_elapsed_ratio_largest_vs_smallest\": %.3f,\n"
       (last.global.elapsed_ms /. first.global.elapsed_ms);
     p "    \"global_excl_detection_ratio\": %.3f,\n"
       ((last.global.elapsed_ms -. ms detection)
       /. (first.global.elapsed_ms -. ms detection));
     p "    \"pod_local_messages_largest\": %d,\n" last.pod_local.messages;
     p "    \"global_messages_largest\": %d\n" last.global.messages;
     p "  },\n"
   | _ -> ());
  p "  \"determinism\": {\n";
  p "    \"partitions\": 4,\n";
  p "    \"domains_checked\": [%s],\n"
    (String.concat ", " (List.map string_of_int domains_checked));
  p "    \"outcome_identical\": %b,\n" deterministic;
  p "    \"cores_available\": %d,\n" cores;
  (* On a box with fewer cores than domains, extra domains only add
     barrier overhead: determinism is still asserted, speedup would be
     noise. Consumers (CI) must not read a speedup off this file when
     this flag is false. *)
  p "    \"speedup_meaningful\": %b\n"
    (cores >= List.fold_left max 1 domains_checked);
  p "  }\n";
  p "}\n";
  close_out oc

let () =
  let smoke = ref false and out = ref "BENCH_scale.json" in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "--out" :: file :: rest ->
      out := file;
      parse rest
    | [ "--out" ] ->
      prerr_endline "exp_scale: --out requires a value";
      exit 2
    | arg :: _ ->
      Printf.eprintf
        "exp_scale: unknown argument %s (usage: exp_scale [--smoke] [--out \
         FILE])\n"
        arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let ks = if !smoke then [ 8 ] else [ 8; 16; 32; 48; 64 ] in
  let rows = List.map measure_size ks in
  let domains_checked = [ 1; 2; 4 ] in
  let deterministic, det_wall =
    time_it (fun () -> determinism_check ~k:8 ~domains:(List.tl domains_checked))
  in
  let cores = Netsim.Sweep.domains_available () in
  Printf.printf
    "determinism (k=8, 4 partitions, domains %s): identical %b (%.2fs, %d \
     cores available)\n%!"
    (String.concat "/" (List.map string_of_int domains_checked))
    deterministic det_wall cores;
  write_json ~file:!out ~smoke:!smoke ~cores ~domains_checked ~deterministic
    rows;
  Printf.printf "wrote %s\n" !out;
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
