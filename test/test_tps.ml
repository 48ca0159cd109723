(* Control-plane saturation layer: workload expansion, bandwidth
   accounting under randomized churn, the sharded admission service
   with escrow, the legal-path cache, and the TPS knee probe. *)

let ms = Netsim.Time.ms

let prop ~count name gen p =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen p)

(* ------------------------------------------------------------------ *)
(* Workload: deterministic open-loop arrival timelines *)

let short_profile = { An2.Workload.default_profile with duration = ms 100 }

let test_expand_deterministic () =
  let a = An2.Workload.expand short_profile ~hosts:24 in
  let b = An2.Workload.expand short_profile ~hosts:24 in
  Alcotest.(check bool) "expand is pure" true (a = b);
  Alcotest.(check bool) "timeline nonempty" true (a <> [])

let test_expand_sorted_and_bounded () =
  let arrivals = An2.Workload.expand short_profile ~hosts:24 in
  let mix = short_profile.An2.Workload.mix in
  let last = ref 0 in
  List.iter
    (fun a ->
      let open An2.Workload in
      Alcotest.(check bool) "sorted by time" true (a.at >= !last);
      last := a.at;
      Alcotest.(check bool) "src in range" true
        (a.src_host >= 0 && a.src_host < 24);
      Alcotest.(check bool) "dst in range" true
        (a.dst_host >= 0 && a.dst_host < 24);
      Alcotest.(check bool) "src <> dst" true (a.src_host <> a.dst_host);
      Alcotest.(check bool) "hold positive" true (a.hold >= 1);
      Alcotest.(check bool) "cells in mix range" true
        (a.cells = 0
        || (a.cells >= mix.An2.Workload.cells_min
           && a.cells <= mix.An2.Workload.cells_max)))
    arrivals

let test_base_stream_stable_without_bursts () =
  (* The burst component draws from an independent stream, so turning
     bursts off must leave every base arrival untouched. *)
  let full = An2.Workload.expand short_profile ~hosts:24 in
  let base_only =
    An2.Workload.expand
      { short_profile with An2.Workload.burst_rate = 0.0 }
      ~hosts:24
  in
  Alcotest.(check bool) "bursts add arrivals" true
    (List.length full > List.length base_only);
  List.iter
    (fun a ->
      Alcotest.(check bool) "base arrival survives bursts" true
        (List.mem a full))
    base_only

let test_scale_and_seed () =
  let n r =
    List.length
      (An2.Workload.expand (An2.Workload.scale short_profile ~rate:r) ~hosts:24)
  in
  let n1 = n 1000.0 and n4 = n 4000.0 in
  Alcotest.(check bool) "4x rate gives > 2x arrivals" true (n4 > 2 * n1);
  let a = An2.Workload.expand short_profile ~hosts:24 in
  let b =
    An2.Workload.expand (An2.Workload.with_seed short_profile 2) ~hosts:24
  in
  Alcotest.(check bool) "seed changes the timeline" true (a <> b)

(* [expand] merges the sorted base stream with the stably sorted
   bursts; the reference stably sorts the two concatenated. Tie-heavy
   profiles: a base stream a few ns apart, bursts squeezed into a span
   of a few ns, so many arrivals of both streams share a timestamp. *)
let tie_heavy_gen =
  QCheck.Gen.(
    map
      (fun (seed, (base_rate, burst_rate), (span, duration_us, guaranteed)) ->
        {
          An2.Workload.default_profile with
          base_rate;
          burst_rate;
          burst_span = span;
          duration = Netsim.Time.us duration_us;
          mix =
            {
              An2.Workload.default_profile.An2.Workload.mix with
              guaranteed_fraction = guaranteed;
            };
          seed;
        })
      (triple (int_bound 10_000)
         (pair (float_range 1e7 5e8) (float_range 1e5 2e7))
         (triple (int_range 1 8) (int_range 1 30) (float_range 0.0 1.0))))

let print_profile (p : An2.Workload.profile) =
  Printf.sprintf "seed=%d base_rate=%.0f burst_rate=%.0f span=%d duration=%d"
    p.seed p.base_rate p.burst_rate p.burst_span p.duration

let test_expand_matches_stable_sort =
  prop ~count:200 "expand = stable sort of base @ bursts"
    (QCheck.make ~print:print_profile tie_heavy_gen)
    (fun p ->
      An2.Workload.expand p ~hosts:24 = Oracle.Workload_reference.expand p ~hosts:24)

(* The property above decides ties only if there are any: at this
   profile many base arrivals share their timestamp with a burst. *)
let test_tie_heavy_profile_ties () =
  let p =
    {
      An2.Workload.default_profile with
      base_rate = 2e8;
      burst_rate = 1e7;
      burst_span = 2;
      duration = Netsim.Time.us 20;
    }
  in
  let times q =
    List.map (fun (a : An2.Workload.arrival) -> a.at) (An2.Workload.expand q ~hosts:24)
  in
  let base = times { p with burst_rate = 0.0 } in
  let shared = List.filter (fun at -> List.mem at base) (times { p with base_rate = 0.0 }) in
  Alcotest.(check bool)
    (Printf.sprintf "%d burst arrivals tie with the base stream" (List.length shared))
    true
    (List.length shared >= 20);
  Alcotest.(check bool) "merge = stable sort" true
    (An2.Workload.expand p ~hosts:24 = Oracle.Workload_reference.expand p ~hosts:24)

(* ------------------------------------------------------------------ *)
(* Bandwidth accounting: per-link reserved cells must equal the sum
   over live guaranteed circuits, whatever churn the core sees. *)

type op =
  | Req of int * int * int
  | Rel of int
  | Fail of int
  | Restore of int
  | Reroute of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map3
            (fun a b c -> Req (a, b, c))
            (int_bound 1000) (int_bound 1000) (int_range 1 6) );
        (3, map (fun i -> Rel i) (int_bound 1000));
        (1, map (fun l -> Fail l) (int_bound 1000));
        (1, map (fun l -> Restore l) (int_bound 1000));
        (2, map (fun i -> Reroute i) (int_bound 1000));
      ])

let expected_reservations live =
  let expect = Hashtbl.create 64 in
  List.iter
    (fun vc ->
      match vc.An2.Network.cls with
      | An2.Network.Guaranteed c ->
        List.iter
          (fun lid ->
            Hashtbl.replace expect lid
              (c + Option.value ~default:0 (Hashtbl.find_opt expect lid)))
          vc.An2.Network.links
      | An2.Network.Best_effort -> ())
    live;
  Hashtbl.fold (fun l c acc -> if c > 0 then (l, c) :: acc else acc) expect []
  |> List.sort compare

let test_accounting_invariant =
  prop ~count:60 "reserved = sum over live guaranteed circuits"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 80) op_gen))
    (fun ops ->
      let g = Topo.Build.src_lan () in
      let net = An2.Network.create ~frame:16 g in
      let bwc = An2.Bandwidth_central.create ~shards:3 net in
      let hosts = Topo.Graph.host_count g in
      let links = Topo.Graph.link_count g in
      let live = ref [] in
      let pick i = List.nth !live (i mod List.length !live) in
      List.iter
        (fun op ->
          match op with
          | Req (a, b, c) ->
            let src = a mod hosts and dst = b mod hosts in
            if src <> dst then (
              match
                An2.Bandwidth_central.request bwc ~src_host:src ~dst_host:dst
                  ~cells:c
              with
              | Ok vc -> live := vc :: !live
              | Error _ -> ())
          | Rel i ->
            if !live <> [] then begin
              let vc = pick i in
              An2.Bandwidth_central.release bwc vc;
              live := List.filter (fun v -> v != vc) !live
            end
          | Fail l -> Topo.Graph.fail_link g (l mod links)
          | Restore l -> Topo.Graph.restore_link g (l mod links)
          | Reroute i ->
            if !live <> [] then begin
              let vc = pick i in
              match An2.Bandwidth_central.reroute_after_failure bwc vc with
              | Ok () -> ()
              | Error _ ->
                (* Denied reroutes dissolve the circuit. *)
                live := List.filter (fun v -> v != vc) !live
            end)
        ops;
      An2.Bandwidth_central.reservations bwc = expected_reservations !live)

let test_double_release_detected () =
  let g = Topo.Build.src_lan () in
  let net = An2.Network.create g in
  let bwc = An2.Bandwidth_central.create net in
  match An2.Bandwidth_central.request bwc ~src_host:0 ~dst_host:12 ~cells:4 with
  | Error _ -> Alcotest.fail "admission denied on an idle network"
  | Ok vc ->
    An2.Bandwidth_central.release bwc vc;
    Alcotest.(check (list (pair int int)))
      "zero entries dropped from reservations" []
      (An2.Bandwidth_central.reservations bwc);
    (match An2.Bandwidth_central.release bwc vc with
    | () -> Alcotest.fail "double release must raise Underflow"
    | exception An2.Bandwidth_central.Underflow _ -> ())

let test_shard_ranges () =
  let g = Topo.Build.src_lan () in
  let net = An2.Network.create g in
  let bwc = An2.Bandwidth_central.create ~shards:4 net in
  Alcotest.(check int) "shards" 4 (An2.Bandwidth_central.shards bwc);
  let last = ref 0 in
  for lid = 0 to 200 do
    let sh = An2.Bandwidth_central.shard_of bwc lid in
    Alcotest.(check bool) "shard in range" true (sh >= 0 && sh < 4);
    Alcotest.(check bool) "ranges are monotone" true (sh >= !last);
    last := sh
  done

(* ------------------------------------------------------------------ *)
(* The sharded admission service *)

module Service = An2.Bandwidth_central.Service

let test_service_grants_and_accounts () =
  let g = Topo.Build.src_lan () in
  let engine = Netsim.Engine.create () in
  let net = An2.Network.create ~frame:64 g in
  let svc =
    An2.Bandwidth_central.Service.create ~engine ~shards:4 net
      An2.Bandwidth_central.Service.default_params
  in
  let hosts = Topo.Graph.host_count g in
  let granted = ref [] in
  for i = 0 to 19 do
    An2.Bandwidth_central.Service.submit svc ~src_host:(i mod hosts)
      ~dst_host:((i + 7) mod hosts) ~cells:2
      ~on_done:(function
        | Ok vc -> granted := vc :: !granted
        | Error _ -> ())
  done;
  Netsim.Engine.run engine;
  let st = An2.Bandwidth_central.Service.stats svc in
  Alcotest.(check int) "all submitted" 20 st.Service.submitted;
  Alcotest.(check int) "all granted" 20 st.Service.granted;
  Alcotest.(check int) "drained" 0 (An2.Bandwidth_central.Service.in_flight svc);
  Alcotest.(check bool) "batched writes flushed" true (st.Service.batch_flushes >= 1);
  Alcotest.(check (list (pair int int)))
    "reservations match the granted circuits"
    (expected_reservations !granted)
    (An2.Bandwidth_central.Service.reservations svc);
  (* Batched admission defers table writes, not correctness: after the
     flush every circuit's entries are installed. *)
  List.iter
    (fun vc ->
      List.iter
        (fun s ->
          Alcotest.(check bool) "entry installed" true
            (An2.Network.next_hop net ~switch:s ~vc_id:vc.An2.Network.vc_id
            <> None))
        vc.An2.Network.switches)
    !granted;
  List.iter (fun vc -> An2.Bandwidth_central.Service.release svc vc) !granted;
  Netsim.Engine.run engine;
  Alcotest.(check int) "all released" 20 (An2.Bandwidth_central.Service.stats svc).Service.released;
  Alcotest.(check (list (pair int int)))
    "everything returned" []
    (An2.Bandwidth_central.Service.reservations svc)

let test_escrow_conflict_deterministic () =
  (* Two 5-cell requests race over the same linear path on a frame of
     8 from hosts coordinated by different shards: both routes compute
     concurrently and see headroom, then escrow/commit serialize on
     the owning shards — exactly one must win, the loser compensated
     by the escrow-conflict path, its cells fully returned. *)
  let g = Topo.Build.linear 4 in
  let h1, h2 = Topo.Build.with_host_pair g in
  Alcotest.(check bool) "hosts coordinate on different shards" true
    (h1 mod 2 <> h2 mod 2);
  let engine = Netsim.Engine.create () in
  let net = An2.Network.create ~frame:8 g in
  let svc =
    An2.Bandwidth_central.Service.create ~engine ~shards:2 net
      An2.Bandwidth_central.Service.default_params
  in
  let results = ref [] in
  let submit src dst =
    An2.Bandwidth_central.Service.submit svc ~src_host:src ~dst_host:dst
      ~cells:5 ~on_done:(fun r -> results := r :: !results)
  in
  submit h1 h2;
  submit h2 h1;
  Netsim.Engine.run engine;
  let st = An2.Bandwidth_central.Service.stats svc in
  Alcotest.(check int) "both submitted" 2 st.Service.submitted;
  Alcotest.(check int) "exactly one granted" 1 st.Service.granted;
  Alcotest.(check int) "one escrow conflict" 1 st.Service.escrow_conflicts;
  Alcotest.(check int) "loser denied No_capacity" 1 st.Service.denied_no_capacity;
  Alcotest.(check int) "both routes crossed shards" 2 st.Service.cross_shard;
  match List.filter_map (function Ok vc -> Some vc | Error _ -> None) !results with
  | [ vc ] ->
    (* The loser's escrow was compensated: only the winner's cells
       remain, on every link of its path. *)
    Alcotest.(check (list (pair int int)))
      "winner's reservations intact, loser's returned"
      (expected_reservations [ vc ])
      (An2.Bandwidth_central.Service.reservations svc)
  | _ -> Alcotest.fail "expected exactly one grant"

(* Admissions racing on a small frame across up to five shards: an
   escrow can fail at the coordinator or at any foreign shard. Once
   everything has drained, the links must hold exactly the cells of
   the circuits still granted, so every failed escrow returned what it
   held and nothing more. *)
let test_service_accounting_under_contention =
  prop ~count:150 "service accounting under escrow conflicts"
    QCheck.(
      pair (int_range 1 5)
        (list_of_size Gen.(int_range 1 40)
           (quad (int_bound 15) (int_bound 15) (int_range 1 6) (int_bound 3))))
    (fun (shards, requests) ->
      let g, _ = Topo.Build.fat_tree ~k:4 in
      let engine = Netsim.Engine.create () in
      let net = An2.Network.create ~frame:8 g in
      let svc = Service.create ~engine ~shards net Service.default_params in
      let live = ref [] in
      List.iteri
        (fun i (src, dst, cells, release) ->
          let dst = if src = dst then (dst + 1) mod 16 else dst in
          Netsim.Engine.post_at engine ~at:(i / 4 * 50_000) (fun () ->
              Service.submit svc ~src_host:src ~dst_host:dst ~cells ~on_done:(function
                | Ok vc when release = 0 ->
                  Netsim.Engine.post engine ~delay:70_000 (fun () -> Service.release svc vc)
                | Ok vc -> live := vc :: !live
                | Error _ -> ())))
        requests;
      Netsim.Engine.run engine;
      let st = Service.stats svc in
      st.Service.granted + st.Service.denied_no_route + st.Service.denied_no_capacity
      = List.length requests
      && Service.reservations svc = expected_reservations !live)

let test_service_deterministic () =
  let scenario () =
    let g = Topo.Build.src_lan () in
    let engine = Netsim.Engine.create () in
    let net = An2.Network.create ~frame:32 g in
    let svc =
      An2.Bandwidth_central.Service.create ~engine ~shards:3 net
        An2.Bandwidth_central.Service.default_params
    in
    let hosts = Topo.Graph.host_count g in
    let outcomes = ref [] in
    for i = 0 to 29 do
      Netsim.Engine.post_at engine ~at:(i * 37_000) (fun () ->
          An2.Bandwidth_central.Service.submit svc ~src_host:(i mod hosts)
            ~dst_host:((i + 5) mod hosts)
            ~cells:(1 + (i mod 4))
            ~on_done:(fun r ->
              let tag =
                match r with
                | Ok vc -> vc.An2.Network.vc_id
                | Error An2.Bandwidth_central.No_route -> -1
                | Error An2.Bandwidth_central.No_capacity -> -2
              in
              outcomes := (Netsim.Engine.now engine, tag) :: !outcomes))
    done;
    Netsim.Engine.run engine;
    ( List.rev !outcomes,
      An2.Bandwidth_central.Service.stats svc,
      An2.Bandwidth_central.Service.reservations svc )
  in
  Alcotest.(check bool) "replays identically" true (scenario () = scenario ())

(* ------------------------------------------------------------------ *)
(* The legal-path cache *)

let setup_sync engine lc ~src ~dst =
  let result = ref None in
  An2.Lifecycle.setup lc ~src_host:src ~dst_host:dst ~on_done:(fun r ->
      result := Some r);
  Netsim.Engine.run engine;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "setup never resolved"

let test_path_cache_hits_and_invalidation () =
  let g = Topo.Build.ring 6 in
  let h1, h2 = Topo.Build.with_host_pair g in
  let net = An2.Network.create g in
  let engine = Netsim.Engine.create () in
  let lc =
    An2.Lifecycle.create ~engine net
      { An2.Lifecycle.default_params with path_cache = true }
  in
  let route vc = vc.An2.Network.switches in
  let vc1 =
    match setup_sync engine lc ~src:h1 ~dst:h2 with
    | Ok vc -> vc
    | Error e -> Alcotest.fail e
  in
  let vc2 =
    match setup_sync engine lc ~src:h1 ~dst:h2 with
    | Ok vc -> vc
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list int)) "cached route equals computed" (route vc1)
    (route vc2);
  let st = An2.Lifecycle.stats lc in
  Alcotest.(check int) "first setup missed" 1 st.An2.Lifecycle.route_cache_misses;
  Alcotest.(check int) "second setup hit" 1 st.An2.Lifecycle.route_cache_hits;
  (* The cache answers by graph version: failing a link on the cached
     route must invalidate it and the recomputed route must avoid the
     dead link (the ring's other arc). *)
  let dead = List.nth vc1.An2.Network.links 1 in
  Topo.Graph.fail_link g dead;
  (match setup_sync engine lc ~src:h1 ~dst:h2 with
  | Error e -> Alcotest.fail e
  | Ok vc3 ->
    Alcotest.(check bool) "recomputed route avoids the dead link" false
      (List.mem dead vc3.An2.Network.links));
  let st = An2.Lifecycle.stats lc in
  Alcotest.(check int) "version bump forced a miss" 2
    st.An2.Lifecycle.route_cache_misses;
  (* Cache off: same routes, every attempt a counted miss. *)
  let g' = Topo.Build.ring 6 in
  let j1, j2 = Topo.Build.with_host_pair g' in
  let engine' = Netsim.Engine.create () in
  let lc' =
    An2.Lifecycle.create ~engine:engine' (An2.Network.create g')
      { An2.Lifecycle.default_params with path_cache = false }
  in
  (match setup_sync engine' lc' ~src:j1 ~dst:j2 with
  | Error e -> Alcotest.fail e
  | Ok vc ->
    Alcotest.(check (list int)) "cache off agrees with cache on" (route vc1)
      (route vc));
  let st' = An2.Lifecycle.stats lc' in
  Alcotest.(check int) "no hits with cache off" 0
    st'.An2.Lifecycle.route_cache_hits;
  Alcotest.(check int) "miss counted with cache off" 1
    st'.An2.Lifecycle.route_cache_misses

(* ------------------------------------------------------------------ *)
(* TPS probe sanity *)

let test_tps_point_sane () =
  let profile = { An2.Workload.default_profile with duration = ms 80 } in
  let point rate config =
    Faults.Tps.run_point
      ~graph:(Topo.Build.src_lan ())
      config
      (An2.Workload.scale profile ~rate)
  in
  let p = point 500.0 Faults.Tps.improved_config in
  Alcotest.(check bool) "arrivals happened" true (p.Faults.Tps.arrivals > 0);
  Alcotest.(check bool) "500/s sustains" false p.Faults.Tps.diverged;
  Alcotest.(check bool) "drained" true p.Faults.Tps.drained;
  Alcotest.(check bool) "point replays identically" true
    (p = point 500.0 Faults.Tps.improved_config);
  let q = point 50_000.0 Faults.Tps.baseline_config in
  Alcotest.(check bool) "50k/s overwhelms the baseline" true
    q.Faults.Tps.diverged

(* [Faults.Tps.run_point] as it was before arrivals came from a
   cursor: every arrival posted at t = 0, latencies in a list. Only the
   posting differs; the point is summed up by the same
   [Faults.Tps.point_of_run]. Fault schedules and periodic gc are left
   out; the cases below use neither. *)
let eager_run_point ~graph (config : Faults.Tps.config) profile =
  let module L = An2.Lifecycle in
  let module S = An2.Bandwidth_central.Service in
  let module N = An2.Network in
  let engine = Netsim.Engine.create () in
  let net = N.create ~frame:config.frame graph in
  let lc = L.create ~engine net config.lifecycle in
  let svc = S.create ~engine ~shards:config.shards net config.service in
  let arrivals = An2.Workload.expand profile ~hosts:(Topo.Graph.host_count graph) in
  let n = List.length arrivals in
  let latencies = ref [] in
  let record at =
    latencies := (Netsim.Engine.now engine - at) :: !latencies
  in
  List.iter
    (fun (a : An2.Workload.arrival) ->
      Netsim.Engine.post_at engine ~at:a.at (fun () ->
          if a.cells = 0 then
            L.setup lc ~src_host:a.src_host ~dst_host:a.dst_host ~on_done:(function
              | Ok vc ->
                record a.at;
                Netsim.Engine.post engine ~delay:a.hold (fun () ->
                    match N.find_vc net vc.N.vc_id with
                    | Some vc' when vc' == vc -> N.teardown net vc
                    | _ -> ())
              | Error _ -> ())
          else
            S.submit svc ~src_host:a.src_host ~dst_host:a.dst_host ~cells:a.cells
              ~on_done:(function
              | Ok vc ->
                record a.at;
                Netsim.Engine.post engine ~delay:a.hold (fun () -> S.release svc vc)
              | Error _ -> ())))
    arrivals;
  let windows = max 2 config.windows in
  let curve = Array.make windows (0.0, 0) in
  let duration = profile.An2.Workload.duration in
  for i = 0 to windows - 1 do
    let at = (i + 1) * duration / windows in
    Netsim.Engine.post_at engine ~at (fun () ->
        curve.(i) <- (Netsim.Time.to_s at, L.in_flight lc + S.in_flight svc))
  done;
  Netsim.Engine.run engine;
  Faults.Tps.point_of_run ~profile ~arrivals:n
    ~latencies_ns:(Array.of_list !latencies) ~curve ~engine lc svc

(* Past the knee (about 26,000/s on src_lan) setups queue, time out and
   retry, so same-instant events are common: the cursor must give the
   point that posting every arrival up front gives. *)
let test_cursor_matches_eager () =
  let profile =
    An2.Workload.scale { An2.Workload.default_profile with duration = ms 80 } ~rate:40_000.0
  in
  let config = Faults.Tps.improved_config in
  let p = Faults.Tps.run_point ~graph:(Topo.Build.src_lan ()) config profile in
  Alcotest.(check bool) "past the knee" true p.Faults.Tps.diverged;
  Alcotest.(check bool) "cursor = eager" true
    (p = eager_run_point ~graph:(Topo.Build.src_lan ()) config profile)

(* [point_of_run] sorts integer nanoseconds and converts only the
   order statistics it reads; the reference converts every latency to
   microseconds first and sorts the floats, as the point did before.
   [Netsim.Time.to_us] is monotone, so the two agree bit for bit. *)
let float_sort_percentiles latencies_ns =
  let sorted = Array.map Netsim.Time.to_us latencies_ns in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let pick q =
    if n = 0 then 0.0
    else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))
  in
  (pick 0.50, pick 0.99, pick 1.0)

let test_percentiles_match_float_sort =
  prop ~count:300 "point percentiles = float-sort reference"
    QCheck.(
      array_of_size
        Gen.(int_bound 300)
        (make Gen.(oneof [ int_bound 40; int_bound 5_000_000; int_bound max_int ])))
    (fun latencies_ns ->
      let graph = Topo.Build.src_lan () in
      let engine = Netsim.Engine.create () in
      let net = An2.Network.create graph in
      let lc = An2.Lifecycle.create ~engine net Faults.Tps.tuned_lifecycle in
      let svc = An2.Bandwidth_central.Service.create ~engine net Service.default_params in
      let p =
        Faults.Tps.point_of_run ~profile:short_profile
          ~arrivals:(Array.length latencies_ns) ~latencies_ns:(Array.copy latencies_ns)
          ~curve:(Array.make 2 (0.0, 0)) ~engine lc svc
      in
      let p50, p99, pmax = float_sort_percentiles latencies_ns in
      Float.equal p.Faults.Tps.p50_us p50
      && Float.equal p.Faults.Tps.p99_us p99
      && Float.equal p.Faults.Tps.max_us pmax)

(* Clock-free pins on the control-srclan benchmark workload at its
   quick size (20,000/s for 200 ms, seed 1): the minor words of one
   point, and the engine's queue-depth peak. Both are exact counts of
   a deterministic run, recorded with the default dune profile. The
   queue peaks at 2,906 while 5,190 arrivals are offered: what is
   pending then is bursts' setups and hold timers. Posting every
   arrival up front would hold all 5,190 at t = 0. *)
let quick_srclan_profile =
  An2.Workload.scale
    (An2.Workload.with_seed { An2.Workload.default_profile with duration = ms 200 } 1)
    ~rate:20_000.0

let point_words graph profile =
  let w0 = Gc.minor_words () in
  let p = Faults.Tps.run_point ~graph Faults.Tps.improved_config profile in
  (p, Gc.minor_words () -. w0)

(* 1,288,147 words, 248 per arrival: the path walks, latency sort and
   arrival merge allocate nothing, so what is left is mostly one
   closure per engine event. *)
let test_point_allocation_pinned () =
  let p, words = point_words (Topo.Build.src_lan ()) quick_srclan_profile in
  Alcotest.(check int) "arrivals" 5190 p.Faults.Tps.arrivals;
  let bound = 1_288_147. *. 1.05 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words <= %.0f" words bound)
    true (words <= bound)

(* The same pin on the control-fattree16 workload's quick size:
   fat-tree:8 at 10,000/s for 100 ms, seed 1, where the route cache
   mostly misses and admissions cross shards. *)
let test_fattree_point_allocation_pinned () =
  let profile =
    An2.Workload.scale
      (An2.Workload.with_seed { An2.Workload.default_profile with duration = ms 100 } 1)
      ~rate:10_000.0
  in
  let p, words = point_words (fst (Topo.Build.fat_tree ~k:8)) profile in
  Alcotest.(check int) "arrivals" 1303 p.Faults.Tps.arrivals;
  let bound = 467_994. *. 1.05 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words <= %.0f" words bound)
    true (words <= bound)

let test_queue_depth_pinned () =
  let obs = Obs.Sink.create () in
  let p =
    Faults.Tps.run_point ~obs ~graph:(Topo.Build.src_lan ()) Faults.Tps.improved_config
      quick_srclan_profile
  in
  let peak = Obs.Metrics.Gauge.max (Obs.Sink.gauge obs "engine.queue.depth") in
  let bound = 2_906. *. 1.05 in
  Alcotest.(check int) "arrivals" 5190 p.Faults.Tps.arrivals;
  Alcotest.(check bool)
    (Printf.sprintf "queue depth peak %.0f <= %.0f" peak bound)
    true (peak <= bound)

let () =
  Alcotest.run "tps"
    [
      ( "workload",
        [
          Alcotest.test_case "expand deterministic" `Quick
            test_expand_deterministic;
          Alcotest.test_case "sorted and bounded" `Quick
            test_expand_sorted_and_bounded;
          Alcotest.test_case "base stream stable without bursts" `Quick
            test_base_stream_stable_without_bursts;
          Alcotest.test_case "scale and seed" `Quick test_scale_and_seed;
          test_expand_matches_stable_sort;
          Alcotest.test_case "tie-heavy profile ties" `Quick
            test_tie_heavy_profile_ties;
        ] );
      ( "accounting",
        [
          test_accounting_invariant;
          Alcotest.test_case "double release detected" `Quick
            test_double_release_detected;
          Alcotest.test_case "shard ranges" `Quick test_shard_ranges;
        ] );
      ( "service",
        [
          Alcotest.test_case "grants and accounts" `Quick
            test_service_grants_and_accounts;
          Alcotest.test_case "escrow conflict deterministic" `Quick
            test_escrow_conflict_deterministic;
          Alcotest.test_case "deterministic replay" `Quick
            test_service_deterministic;
          test_service_accounting_under_contention;
        ] );
      ( "path cache",
        [
          Alcotest.test_case "hits and invalidation" `Quick
            test_path_cache_hits_and_invalidation;
        ] );
      ( "tps",
        [
          Alcotest.test_case "point sanity" `Quick test_tps_point_sane;
          Alcotest.test_case "cursor = eager posting" `Quick test_cursor_matches_eager;
          test_percentiles_match_float_sort;
          Alcotest.test_case "allocation pinned (src_lan)" `Quick
            test_point_allocation_pinned;
          Alcotest.test_case "allocation pinned (fat-tree:8)" `Quick
            test_fattree_point_allocation_pinned;
          Alcotest.test_case "queue depth pinned (src_lan)" `Quick test_queue_depth_pinned;
        ] );
    ]
