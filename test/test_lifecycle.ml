(* Circuit lifecycle recovery: timeout, retry with backoff, crankback,
   orphan gc and paced re-admission. Everything runs on an explicit
   engine so failures can be injected at precise instants relative to
   the setup crawl. *)

let us = Netsim.Time.us
let ms = Netsim.Time.ms

let linear_net hops =
  let g = Topo.Build.linear hops in
  let h1, h2 = Topo.Build.with_host_pair g in
  (g, An2.Network.create g, h1, h2)

let setup_sync engine lc ~src ~dst =
  let result = ref None in
  An2.Lifecycle.setup lc ~src_host:src ~dst_host:dst ~on_done:(fun r ->
      result := Some r);
  Netsim.Engine.run engine;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "setup never resolved"

let test_setup_succeeds () =
  let _g, net, h1, h2 = linear_net 4 in
  let engine = Netsim.Engine.create () in
  let lc = An2.Lifecycle.create ~engine net An2.Lifecycle.default_params in
  (match setup_sync engine lc ~src:h1 ~dst:h2 with
  | Error e -> Alcotest.fail e
  | Ok vc ->
    Alcotest.(check bool) "circuit live" false vc.An2.Network.paged_out;
    Alcotest.(check int) "full path" 4 (List.length vc.An2.Network.switches);
    (* Entries really are in the tables, one per switch. *)
    List.iter
      (fun s ->
        Alcotest.(check bool)
          (Printf.sprintf "entry at %d" s)
          true
          (An2.Network.next_hop net ~switch:s ~vc_id:vc.An2.Network.vc_id
          <> None))
      vc.An2.Network.switches);
  let st = An2.Lifecycle.stats lc in
  Alcotest.(check int) "one establishment" 1 st.An2.Lifecycle.established;
  Alcotest.(check int) "single attempt" 1 st.An2.Lifecycle.attempts;
  Alcotest.(check int) "no leaks" 0 (An2.Lifecycle.audit lc);
  Alcotest.(check int) "drained" 0 (An2.Lifecycle.in_flight lc)

let test_no_route_is_terminal () =
  (* Hosts on either side of a dead link: every attempt fails to route,
     and after max_attempts the setup ends in a terminal error rather
     than live-locking. *)
  let g, net, h1, h2 = linear_net 3 in
  Topo.Graph.fail_link g 0;
  let engine = Netsim.Engine.create () in
  let lc =
    An2.Lifecycle.create ~engine net
      { An2.Lifecycle.default_params with max_attempts = 4 }
  in
  (match setup_sync engine lc ~src:h1 ~dst:h2 with
  | Ok _ -> Alcotest.fail "must not establish across a partition"
  | Error _ -> ());
  let st = An2.Lifecycle.stats lc in
  Alcotest.(check int) "gave up after max attempts" 4 st.An2.Lifecycle.attempts;
  Alcotest.(check int) "retries between them" 3 st.An2.Lifecycle.retries;
  Alcotest.(check int) "one terminal failure" 1 st.An2.Lifecycle.failed;
  Alcotest.(check int) "drained" 0 (An2.Lifecycle.in_flight lc);
  Alcotest.(check int) "engine drained" 0 (Netsim.Engine.pending engine)

let test_crankback_on_dead_link () =
  (* Kill the s1-s2 link while the setup cell is crawling: the crawl
     discovers the dead link at s1, cranks back (uninstalling s0 and
     s1), and there is no alternate path on a line, so attempts repeat
     until terminal. The tables must end clean without any gc. *)
  let g, net, h1, h2 = linear_net 4 in
  let engine = Netsim.Engine.create () in
  let lc =
    An2.Lifecycle.create ~engine net
      { An2.Lifecycle.default_params with max_attempts = 2 }
  in
  Netsim.Engine.post_at engine ~at:(us 150) (fun () -> Topo.Graph.fail_link g 1);
  (match setup_sync engine lc ~src:h1 ~dst:h2 with
  | Ok _ -> Alcotest.fail "no path exists after the cut"
  | Error _ -> ());
  let st = An2.Lifecycle.stats lc in
  Alcotest.(check bool) "cranked back" true (st.An2.Lifecycle.crankbacks > 0);
  Alcotest.(check int) "release cleaned the tables" 0 (An2.Lifecycle.audit lc);
  Alcotest.(check int) "drained" 0 (An2.Lifecycle.in_flight lc)

let test_crankback_reroutes_around_failure () =
  (* On a ring there IS an alternate path: the retry after crankback
     must establish the circuit the long way round. *)
  let g = Topo.Build.ring 5 in
  let h1, h2 = Topo.Build.with_host_pair g in
  let net = An2.Network.create g in
  let engine = Netsim.Engine.create () in
  let lc = An2.Lifecycle.create ~engine net An2.Lifecycle.default_params in
  (* h2 is on switch 4; shortest path 0-4 uses the wrap link. Kill it
     mid-crawl so the retry goes 0-1-2-3-4. *)
  Netsim.Engine.post_at engine ~at:(us 50) (fun () ->
      Topo.Graph.fail_link g 4);
  (match setup_sync engine lc ~src:h1 ~dst:h2 with
  | Error e -> Alcotest.fail e
  | Ok vc ->
    Alcotest.(check int) "took the long way" 5
      (List.length vc.An2.Network.switches));
  let st = An2.Lifecycle.stats lc in
  Alcotest.(check int) "established" 1 st.An2.Lifecycle.established;
  Alcotest.(check bool) "needed more than one attempt" true
    (st.An2.Lifecycle.attempts > 1);
  Alcotest.(check int) "no leaks" 0 (An2.Lifecycle.audit lc)

let test_timeout_on_crashed_switch_leaves_orphans_for_gc () =
  (* A switch that dies with the setup cell on its processor swallows
     it: the source timeout fires, the abandoned attempt leaves its
     installed entries behind as orphans, and gc reclaims them. The
     cell reaches switch 2 at ~203 us and leaves at ~303 us; the crash
     at 250 us catches it mid-processing. *)
  let g, net, h1, h2 = linear_net 4 in
  let engine = Netsim.Engine.create () in
  let lc =
    An2.Lifecycle.create ~engine net
      { An2.Lifecycle.default_params with max_attempts = 2; setup_timeout = ms 5 }
  in
  Netsim.Engine.post_at engine ~at:(us 250) (fun () ->
      Topo.Graph.fail_switch g 2);
  (match setup_sync engine lc ~src:h1 ~dst:h2 with
  | Ok _ -> Alcotest.fail "line is cut at switch 2"
  | Error _ -> ());
  let st = An2.Lifecycle.stats lc in
  Alcotest.(check bool) "timed out" true (st.An2.Lifecycle.timeouts > 0);
  let leaked = An2.Lifecycle.audit lc in
  Alcotest.(check bool) "orphans left behind" true (leaked > 0);
  Alcotest.(check int) "gc reclaims them all" leaked (An2.Lifecycle.gc lc);
  Alcotest.(check int) "clean after gc" 0 (An2.Lifecycle.audit lc);
  Alcotest.(check int) "drained" 0 (An2.Lifecycle.in_flight lc)

let test_gc_sweeps_reconfigured_circuit () =
  (* A circuit whose path dies while established: gc marks it dark,
     sweeps its entries, and readmission brings it back. *)
  let g = Topo.Build.ring 5 in
  let h1, h2 = Topo.Build.with_host_pair g in
  let net = An2.Network.create g in
  let engine = Netsim.Engine.create () in
  let lc = An2.Lifecycle.create ~engine net An2.Lifecycle.default_params in
  let vc =
    match setup_sync engine lc ~src:h1 ~dst:h2 with
    | Ok vc -> vc
    | Error e -> Alcotest.fail e
  in
  List.iter (Topo.Graph.fail_link g) vc.An2.Network.links;
  let reclaimed = An2.Lifecycle.gc lc in
  Alcotest.(check bool) "entries swept" true (reclaimed > 0);
  Alcotest.(check bool) "circuit dark" true vc.An2.Network.paged_out;
  Alcotest.(check (list int)) "listed dark" [ vc.An2.Network.vc_id ]
    (List.map (fun v -> v.An2.Network.vc_id) (An2.Lifecycle.dark lc));
  Alcotest.(check int) "no leaks" 0 (An2.Lifecycle.audit lc);
  List.iter (Topo.Graph.restore_link g) vc.An2.Network.links;
  let done_ = ref false in
  An2.Lifecycle.readmit lc (An2.Lifecycle.dark lc) ~on_done:(fun () ->
      done_ := true);
  Netsim.Engine.run engine;
  Alcotest.(check bool) "readmission finished" true !done_;
  Alcotest.(check bool) "circuit back" false vc.An2.Network.paged_out;
  Alcotest.(check int) "still no leaks" 0 (An2.Lifecycle.audit lc)

let storm net engine ~pace ~pairs =
  let lc =
    An2.Lifecycle.create ~engine net
      { An2.Lifecycle.default_params with pace }
  in
  let ok = ref 0 in
  List.iter
    (fun (a, b) ->
      An2.Lifecycle.setup lc ~src_host:a ~dst_host:b ~on_done:(function
        | Ok _ -> incr ok
        | Error e -> Alcotest.fail e))
    pairs;
  Netsim.Engine.run engine;
  Alcotest.(check int) "all established" (List.length pairs) !ok;
  (An2.Lifecycle.stats lc).An2.Lifecycle.worst_backlog

let test_pacing_would_bound_backlog () =
  (* Many simultaneous setups through the same line of switches: the
     per-switch signaling queue depth is the backlog pacing exists to
     bound (readmit spreads admissions; direct setup does not). *)
  let g = Topo.Build.linear 3 in
  let h () =
    let h = Topo.Graph.add_host g in
    ignore (Topo.Graph.connect g (Topo.Graph.Host h) (Topo.Graph.Switch 0));
    h
  in
  let far =
    let h = Topo.Graph.add_host g in
    ignore (Topo.Graph.connect g (Topo.Graph.Host h) (Topo.Graph.Switch 2));
    h
  in
  let pairs = List.init 6 (fun _ -> (h (), far)) in
  let net = An2.Network.create g in
  let engine = Netsim.Engine.create () in
  let backlog = storm net engine ~pace:0 ~pairs in
  Alcotest.(check bool)
    (Printf.sprintf "storm queues (backlog %d)" backlog)
    true (backlog >= 5)

let test_readmit_paced_vs_naive () =
  (* The same dark batch readmitted with and without pacing: pacing
     must cut the worst signaling backlog. *)
  let run pace =
    let g = Topo.Build.linear 3 in
    let far =
      let h = Topo.Graph.add_host g in
      ignore (Topo.Graph.connect g (Topo.Graph.Host h) (Topo.Graph.Switch 2));
      h
    in
    let near () =
      let h = Topo.Graph.add_host g in
      ignore (Topo.Graph.connect g (Topo.Graph.Host h) (Topo.Graph.Switch 0));
      h
    in
    let net = An2.Network.create g in
    let engine = Netsim.Engine.create () in
    let lc =
      An2.Lifecycle.create ~engine net
        { An2.Lifecycle.default_params with pace }
    in
    let vcs =
      List.init 6 (fun _ ->
          let vc =
            match
              An2.Network.setup_best_effort net ~src_host:(near ())
                ~dst_host:far
            with
            | Ok vc -> vc
            | Error e -> Alcotest.fail e
          in
          An2.Network.page_out net vc;
          vc)
    in
    let finished = ref false in
    let failures = ref 0 in
    An2.Lifecycle.readmit lc vcs
      ~on_circuit:(function Ok _ -> () | Error _ -> incr failures)
      ~on_done:(fun () -> finished := true);
    Netsim.Engine.run engine;
    Alcotest.(check bool) "batch completed" true !finished;
    Alcotest.(check int) "no failures" 0 !failures;
    Alcotest.(check int) "no leaks" 0 (An2.Lifecycle.audit lc);
    (An2.Lifecycle.stats lc).An2.Lifecycle.worst_backlog
  in
  let naive = run 0 in
  let paced = run (ms 1) in
  Alcotest.(check bool)
    (Printf.sprintf "paced %d < naive %d" paced naive)
    true (paced < naive)

let test_deterministic_under_jitter () =
  (* Jitter comes from the seeded rng: identical runs, identical
     stats — the property sweeps rely on. *)
  let run () =
    let g, net, h1, h2 = linear_net 4 in
    let engine = Netsim.Engine.create () in
    let lc =
      An2.Lifecycle.create ~engine net
        { An2.Lifecycle.default_params with max_attempts = 3; setup_timeout = ms 2 }
    in
    Netsim.Engine.post_at engine ~at:(us 150) (fun () ->
        Topo.Graph.fail_switch g 2);
    Netsim.Engine.post_at engine ~at:(ms 3) (fun () ->
        Topo.Graph.restore_switch g 2);
    let r = setup_sync engine lc ~src:h1 ~dst:h2 in
    (Result.is_ok r, An2.Lifecycle.stats lc, Netsim.Engine.now engine)
  in
  Alcotest.(check bool) "identical runs" true (run () = run ())

(* The orphan check walks each circuit's path per table binding; the
   reference is the check as it was, a search of [table_entries]. The
   tables are tampered with first: entries whose links differ from the
   path's in one end or both, entries at switches off the path,
   entries of circuits that do not exist, dark circuits and a failed
   link, so that every reason to keep or drop an entry occurs. *)
let reference_orphans net =
  let g = An2.Network.graph net in
  let keep s vc_id entry =
    match An2.Network.find_vc net vc_id with
    | None -> false
    | Some vc ->
      (not vc.An2.Network.paged_out)
      && vc.An2.Network.links <> []
      && List.for_all (Topo.Graph.link_working g) vc.An2.Network.links
      && List.exists
           (fun (s', e) -> s' = s && e = entry)
           (An2.Network.table_entries vc)
  in
  List.concat
    (List.init (Topo.Graph.switch_count g) (fun s ->
         List.filter_map
           (fun (vc_id, entry) -> if keep s vc_id entry then None else Some (s, vc_id))
           (An2.Network.table_bindings net s)))

let test_orphan_check_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"orphan check = table_entries reference"
       QCheck.(
         triple
           (list_of_size Gen.(int_range 1 6) (pair (int_bound 15) (int_bound 15)))
           (list_of_size Gen.(int_bound 12)
              (quad (int_bound 7) (int_bound 40) (int_bound 9) (int_bound 9)))
           (pair (int_bound 3) (int_bound 80)))
       (fun (pairs, tampering, (dark, failed)) ->
         let g, _ = Topo.Build.fat_tree ~k:4 in
         let net = An2.Network.create g in
         let engine = Netsim.Engine.create () in
         let lc = An2.Lifecycle.create ~engine net An2.Lifecycle.default_params in
         let vcs = ref [] in
         List.iter
           (fun (src, dst) ->
             let dst = if src = dst then (dst + 1) mod 16 else dst in
             An2.Lifecycle.setup lc ~src_host:src ~dst_host:dst ~on_done:(function
               | Ok vc -> vcs := vc :: !vcs
               | Error _ -> ()))
           pairs;
         Netsim.Engine.run engine;
         let vcs = Array.of_list (List.rev !vcs) in
         let n = Array.length vcs in
         let links vc k =
           let l = vc.An2.Network.links in
           if k < List.length l then List.nth l k else k
         in
         if n > 0 then
           List.iter
             (fun (v, s, i, o) ->
               (* [v] past the circuits names one that does not exist. *)
               let vc =
                 if v < n then vcs.(v) else { vcs.(0) with An2.Network.vc_id = 1000 + v }
               in
               let path = vc.An2.Network.switches in
               let switch = if s < List.length path then List.nth path s else s mod 20 in
               An2.Network.install_hop net vc ~switch ~in_link:(links vc i)
                 ~out_link:(links vc o))
             tampering;
         if dark < n then vcs.(dark).An2.Network.paged_out <- true;
         if failed < Topo.Graph.link_count g then Topo.Graph.fail_link g failed;
         let expected = reference_orphans net in
         let audited = An2.Lifecycle.audit lc in
         let reclaimed = An2.Lifecycle.gc lc in
         audited = List.length expected
         && reclaimed = audited
         && reference_orphans net = []))

let () =
  Alcotest.run "lifecycle"
    [
      ( "setup",
        [
          Alcotest.test_case "succeeds end to end" `Quick test_setup_succeeds;
          Alcotest.test_case "no route is terminal" `Quick
            test_no_route_is_terminal;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "crankback on dead link" `Quick
            test_crankback_on_dead_link;
          Alcotest.test_case "crankback reroutes around failure" `Quick
            test_crankback_reroutes_around_failure;
          Alcotest.test_case "timeout leaves orphans for gc" `Quick
            test_timeout_on_crashed_switch_leaves_orphans_for_gc;
          Alcotest.test_case "gc sweeps reconfigured circuit" `Quick
            test_gc_sweeps_reconfigured_circuit;
          test_orphan_check_matches_reference;
        ] );
      ( "admission",
        [
          Alcotest.test_case "storm queues without pacing" `Quick
            test_pacing_would_bound_backlog;
          Alcotest.test_case "paced vs naive backlog" `Quick
            test_readmit_paced_vs_naive;
          Alcotest.test_case "deterministic under jitter" `Quick
            test_deterministic_under_jitter;
        ] );
    ]
