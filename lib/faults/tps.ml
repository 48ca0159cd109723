module Lifecycle = An2.Lifecycle
module Service = An2.Bandwidth_central.Service
module Network = An2.Network
module Workload = An2.Workload

type config = {
  lifecycle : Lifecycle.params;
  service : Service.params;
  shards : int;
  frame : int;
  windows : int;
  gc_every : Netsim.Time.t;
  schedule : Schedule.t;
}

(* TPS-calibrated signaling: fast line cards (10 us/hop) so that the
   expensive part of a setup is route computation and admission — the
   two costs the knee-raisers attack. *)
let tuned_lifecycle =
  {
    Lifecycle.default_params with
    proc_delay = Netsim.Time.us 10;
    setup_timeout = Netsim.Time.ms 50;
    max_attempts = 4;
    route_cost = Netsim.Time.ms 1;
    route_cost_cached = Netsim.Time.us 20;
    path_cache = true;
  }

let improved_config =
  {
    lifecycle = tuned_lifecycle;
    service = Service.default_params;
    shards = 4;
    frame = 1024;
    windows = 20;
    gc_every = 0;
    schedule = [];
  }

(* The pre-PR control plane under the same cost model: every attempt
   recomputes its route at full price, one admission shard, and every
   routing-table entry written inline. *)
let baseline_config =
  {
    improved_config with
    lifecycle = { tuned_lifecycle with path_cache = false };
    service = { Service.default_params with flush_every = 0 };
    shards = 1;
  }

(* Divergence thresholds, parameterized so long-horizon harnesses
   (soak) can tighten or loosen drift detection. The defaults encode
   exactly the historical test:
   (final > 32 && 2*final > 3*mid) || failed*100 > n_arrivals.
   The float comparisons below are exact at the defaults — backlogs
   and counts are small ints, exactly representable in doubles. *)
type thresholds = {
  final_backlog_min : int;
      (** backlog depth below which the curve test never fires *)
  final_over_mid : float;
      (** final > this × midpoint ⇒ still growing, not a plateau *)
  terminal_failure_pct : float;
      (** terminal setup failures as % of arrivals *)
}

let default_thresholds =
  { final_backlog_min = 32; final_over_mid = 1.5; terminal_failure_pct = 1.0 }

type point = {
  rate : float;  (** offered rate the profile was scaled to *)
  offered_rate : float;  (** measured: arrivals / duration *)
  arrivals : int;
  established : int;  (** best-effort setups that completed *)
  failed : int;
  granted : int;  (** guaranteed admissions *)
  denied : int;
  cross_shard : int;
  escrow_conflicts : int;
  batch_flushes : int;
  cache_hits : int;
  cache_misses : int;
  p50_us : float;
  p99_us : float;
  max_us : float;
  worst_signaling_backlog : int;
  worst_admission_backlog : int;
  backlog_curve : (float * int) array;
      (** (sim seconds, in-flight setups + admissions), one sample per
          window across the offered-load interval *)
  peak_backlog : int;
  final_backlog : int;  (** at the end of the offered-load interval *)
  diverged : bool;
  drained : bool;  (** everything resolved once arrivals stopped *)
  sim_events : int;
}

(* The latency at quantile [q] of [sorted] (ns), in microseconds.
   [Netsim.Time.to_us] is monotone, so converting the order statistic
   gives the same float as sorting converted values would. *)
let percentile (sorted : int array) q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    Netsim.Time.to_us sorted.(max 0 (min (n - 1) (rank - 1)))
  end

let point_of_run ~profile ~arrivals ~latencies_ns ~curve ~engine lc svc =
  let duration = profile.Workload.duration in
  let windows = Array.length curve in
  let ls = Lifecycle.stats lc in
  let ss = Service.stats svc in
  (* Sorted as ints: a float array through the polymorphic [Array.sort]
     would box both floats of every comparison. *)
  Array.sort Int.compare latencies_ns;
  let backlogs = Array.map snd curve in
  let peak = Array.fold_left max 0 backlogs in
  let final = backlogs.(windows - 1) in
  let mid = backlogs.((windows / 2) - 1) in
  (* Divergence, either way the control plane stops keeping up:
     (a) the in-flight backlog at the end of the offered-load interval
     is absolutely deep and still growing past the midpoint (a
     saturated queue grows linearly, final ≈ 2 × mid, so the test is
     final > 1.5 × mid — above a sustained plateau, below linear
     growth); or (b) setups die terminally (timeout storms): past
     deep saturation the backlog *plateaus* because attempts are
     bounded, so failures, not queue depth, are the signal there. *)
  let failed = ls.Lifecycle.failed in
  let thresholds = default_thresholds in
  let diverged =
    (final > thresholds.final_backlog_min
    && float_of_int final > thresholds.final_over_mid *. float_of_int mid)
    || float_of_int failed *. 100.0
       > thresholds.terminal_failure_pct *. float_of_int arrivals
  in
  {
    rate = profile.Workload.base_rate;
    offered_rate = float_of_int arrivals /. Netsim.Time.to_s duration;
    arrivals;
    established = ls.Lifecycle.established;
    failed;
    granted = ss.Service.granted;
    denied = ss.Service.denied_no_route + ss.Service.denied_no_capacity;
    cross_shard = ss.Service.cross_shard;
    escrow_conflicts = ss.Service.escrow_conflicts;
    batch_flushes = ss.Service.batch_flushes;
    cache_hits = ls.Lifecycle.route_cache_hits;
    cache_misses = ls.Lifecycle.route_cache_misses;
    p50_us = percentile latencies_ns 0.50;
    p99_us = percentile latencies_ns 0.99;
    max_us = percentile latencies_ns 1.0;
    worst_signaling_backlog = ls.Lifecycle.worst_backlog;
    worst_admission_backlog = ss.Service.worst_backlog;
    backlog_curve = curve;
    peak_backlog = peak;
    final_backlog = final;
    diverged;
    drained = Lifecycle.in_flight lc = 0 && Service.in_flight svc = 0;
    sim_events = Netsim.Engine.dispatched engine;
  }

let run_point ?obs ~graph config profile =
  let engine = Netsim.Engine.create ?obs () in
  let net = Network.create ~frame:config.frame graph in
  let lc = Lifecycle.create ?obs ~engine net config.lifecycle in
  let svc =
    Service.create ?obs ~engine ~shards:config.shards net config.service
  in
  let hosts = Topo.Graph.host_count graph in
  let arrivals = Workload.expand profile ~hosts in
  let n_arrivals = List.length arrivals in
  (* Setup latencies in nanoseconds: [lat.(0 .. n_lat - 1)]. *)
  let lat = ref (Array.make 1024 0) and n_lat = ref 0 in
  let record_latency at =
    let now = Netsim.Engine.now engine in
    if !n_lat = Array.length !lat then begin
      let grown = Array.make (2 * !n_lat) 0 in
      Array.blit !lat 0 grown 0 !n_lat;
      lat := grown
    end;
    !lat.(!n_lat) <- now - at;
    incr n_lat
  in
  let arrive a =
    let open Workload in
    if a.cells = 0 then
      Lifecycle.setup lc ~src_host:a.src_host ~dst_host:a.dst_host
        ~on_done:(function
          | Ok vc ->
            record_latency a.at;
            Netsim.Engine.post engine ~delay:a.hold (fun () ->
                match Network.find_vc net vc.Network.vc_id with
                | Some vc' when vc' == vc -> Network.teardown net vc
                | _ -> ())
          | Error _ -> ())
    else
      Service.submit svc ~src_host:a.src_host ~dst_host:a.dst_host
        ~cells:a.cells
        ~on_done:(function
          | Ok vc ->
            record_latency a.at;
            Netsim.Engine.post engine ~delay:a.hold (fun () ->
                Service.release svc vc)
          | Error _ -> ())
  in
  (* Arrivals come from a cursor over the sorted timeline: each one
     posts its successor, so one is pending at a time. Their ranks are
     reserved here, where posting them all would have scheduled them,
     so same-instant events keep that order. *)
  let base = Netsim.Engine.reserve engine n_arrivals in
  let rec post_from rank = function
    | [] -> ()
    | a :: rest ->
      Netsim.Engine.post_ranked engine ~at:a.Workload.at ~rank (fun () ->
          post_from (rank + 1) rest;
          arrive a)
  in
  post_from base arrivals;
  (* Backlog sampler: [windows] equally spaced samples over the
     offered-load interval. *)
  let windows = max 2 config.windows in
  let curve = Array.make windows (0.0, 0) in
  let duration = profile.Workload.duration in
  for i = 0 to windows - 1 do
    let at = (i + 1) * duration / windows in
    Netsim.Engine.post_at engine ~at (fun () ->
        curve.(i) <-
          (Netsim.Time.to_s at, Lifecycle.in_flight lc + Service.in_flight svc))
  done;
  if config.schedule <> [] then
    ignore
      (Schedule.install ~engine ~graph (Schedule.expand config.schedule));
  if config.gc_every > 0 then begin
    let rec tick at =
      if at <= duration then
        Netsim.Engine.post_at engine ~at (fun () ->
            ignore (Lifecycle.gc lc);
            tick (at + config.gc_every))
    in
    tick config.gc_every
  end;
  Netsim.Engine.run engine;
  point_of_run ~profile ~arrivals:n_arrivals
    ~latencies_ns:(Array.sub !lat 0 !n_lat) ~curve ~engine lc svc

(* Knee search, tezos bin_tps_evaluation style: geometric probing from
   [rate_start] to bracket the divergence point (at most
   [max_doublings] doublings or halvings), then [bisect_steps]
   bisections. Every probe runs on a fresh graph from [mk_graph], so
   points are independent and the whole search is a pure function of
   its arguments. *)
let rate_start = 2000.0
let max_doublings = 10
let bisect_steps = 3

let find_knee ?obs ~mk_graph config profile =
  let points = ref [] in
  let probe rate =
    let pt =
      run_point ?obs ~graph:(mk_graph ()) config
        (Workload.scale profile ~rate)
    in
    points := pt :: !points;
    pt
  in
  let first = probe rate_start in
  let bracket =
    if not first.diverged then begin
      (* Climb: double until the backlog diverges. *)
      let rec climb lo n =
        let hi = lo *. 2.0 in
        if n = 0 then (lo, hi)
        else begin
          let pt = probe hi in
          if pt.diverged then (lo, hi) else climb hi (n - 1)
        end
      in
      climb rate_start max_doublings
    end
    else begin
      (* Descend: halve until sustained. *)
      let rec descend hi n =
        let lo = hi /. 2.0 in
        if n = 0 || lo < 1.0 then (lo, hi)
        else begin
          let pt = probe lo in
          if pt.diverged then descend lo (n - 1) else (lo, hi)
        end
      in
      descend rate_start max_doublings
    end
  in
  let rec bisect (lo, hi) n =
    if n = 0 then lo
    else begin
      let mid = (lo +. hi) /. 2.0 in
      let pt = probe mid in
      if pt.diverged then bisect (lo, mid) (n - 1) else bisect (mid, hi) (n - 1)
    end
  in
  let knee = bisect bracket bisect_steps in
  let by_rate = List.sort (fun a b -> compare a.rate b.rate) !points in
  (knee, by_rate)
