(* The six benchmark workloads. Each one builds its inputs from the seed
   (set-up), makes exactly one timed call into a library entry point,
   and then checks the simulated output and summarises it. Set-up calls
   and the timed call go through [Span.run], which costs nothing unless
   the rep is traced. *)

module Time = Netsim.Time
module Rng = Netsim.Rng

type ctx = {
  seed : int;
  quick : bool;
  obs : Obs.Sink.t option;  (** [Some] on the traced rep only *)
  out_dir : string;  (** scratch space for checkpoints and traces *)
}

let traced ctx = ctx.obs <> None

(* A simulated result: deterministic for a seed, so it must repeat
   exactly across reps and commits. [count] is the sample count behind
   a percentile, 0 otherwise. *)
type sim = { name : string; unit : string; value : float; count : int }

type outcome = {
  sim_s : float;  (** simulated seconds the timed call covered *)
  ops : float;
      (** simulated operations the timed call performed, in the unit
          that sets its cost: a fabric slot, a switch slot of the data
          plane, a circuit arrival, a reconfiguration message *)
  ok_frac : float;  (** operations that succeeded / operations attempted *)
  sims : sim list;
  checks : (string * bool) list;
  digest : string;  (** hash of every simulated output *)
  layer : (string * float) list;  (** per-layer metrics, traced rep only *)
  engine_span : string;  (** the span that runs the event engine, if any *)
}

(* ---- host-side measurement of the one timed call ------------------ *)

(* Wall clock at which the parent spawned this process; set-up time runs
   from here to the timed call. *)
let t0 = ref (Unix.gettimeofday ())
let setup_s = ref 0.0
let timed_s = ref 0.0
let alloc_words = ref 0.0

let allocated () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let timed f =
  let start = Unix.gettimeofday () in
  setup_s := start -. !t0;
  let a0 = allocated () in
  let v = f () in
  timed_s := Unix.gettimeofday () -. start;
  alloc_words := allocated () -. a0;
  v

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))
let sim ?(count = 0) name unit value = { name; unit; value; count }
let ms_of_ns ns = float_of_int ns /. 1e6

let time_ns f =
  let a = Time.monotonic_ns () in
  let v = f () in
  (v, Time.monotonic_ns () - a)

(* ---- obs counters harvested on the traced rep ---------------------- *)

type harvest = {
  counters : (string * float) list;
  gauges_max : (string * float) list;
  hist_mean : (string * float) list;
}

let harvest = function
  | None -> { counters = []; gauges_max = []; hist_mean = [] }
  | Some (obs : Obs.Sink.t) ->
    let j = Obs.Json.parse (Obs.Metrics.to_json_string obs.metrics) in
    let section name field =
      List.filter_map
        (fun (k, v) ->
          match field v with
          | Obs.Json.Num x -> Some (k, x)
          | _ -> None)
        (Obs.Json.obj (Obs.Json.member name j))
    in
    {
      counters = section "counters" Fun.id;
      gauges_max = section "gauges" (Obs.Json.member "max");
      hist_mean = section "histograms" (Obs.Json.member "mean");
    }

let get tbl name = Option.value ~default:0.0 (List.assoc_opt name tbl)

let sum_matching tbl ~prefix ~suffix =
  List.fold_left
    (fun acc (k, v) ->
      if String.starts_with ~prefix k && String.ends_with ~suffix k then acc +. v else acc)
    0.0 tbl

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Seeded endpoints in two different pods of a k-ary fat-tree, so every
   circuit crosses the core on a 5-switch path and the seed moves load
   around without changing how much work a circuit is. Hosts are
   numbered pod by pod, k^2/4 to a pod. *)
let cross_pod_pair rng ~k =
  let per_pod = k * k / 4 in
  let src = Rng.int rng (k * per_pod) in
  let dst_pod = ((src / per_pod) + 1 + Rng.int rng (k - 1)) mod k in
  (src, (dst_pod * per_pod) + Rng.int rng per_pod)

(* ---- fabric-bursty -------------------------------------------------- *)

let cell_us = 0.681

let fabric ctx =
  let n = 16 and slots = if ctx.quick then 20_000 else 200_000 in
  let rng = Rng.create ctx.seed in
  let traffic = Fabric.Traffic.bursty ~rng:(Rng.split rng) ~n ~load:0.9 ~mean_burst:16.0 in
  let model =
    Span.run "fabric.create" (fun () ->
        Fabric.Voq_switch.create_observed
          ~obs:(Option.value ctx.obs ~default:Obs.Sink.null)
          ~rng ~n ~scheduler:(Fabric.Voq_switch.Pim 3)
          ~on_transfer:(fun _ ~slot:_ -> ()))
  in
  let model =
    if not (traced ctx) then model
    else
      {
        model with
        Fabric.Model.inject = (fun c -> Span.run "fabric.inject" (fun () -> model.inject c));
        step = (fun ~slot -> Span.run "fabric.step" (fun () -> model.step ~slot));
      }
  in
  let m =
    timed (fun () ->
        Span.run "fabric.harness.run" (fun () ->
            Fabric.Harness.run ?obs:ctx.obs ~traffic ~model ~slots ()))
  in
  let warmup = slots / 10 in
  let h = harvest ctx.obs in
  {
    sim_s = float_of_int (warmup + slots) *. cell_us *. 1e-6;
    ops = float_of_int (warmup + slots);
    (* The VOQ model never drops a cell: success is the share of offered
       cells carried, capped at 1 because warm-up cells may depart
       inside the measured window. *)
    ok_frac = Float.min 1.0 (float_of_int m.carried /. float_of_int m.offered);
    sims =
      [
        sim "cell_p99_us" "us" (m.p99_delay *. cell_us) ~count:m.carried;
        sim "cell_mean_us" "us" (m.mean_delay *. cell_us) ~count:m.carried;
        sim "throughput" "frac" m.throughput;
      ];
    checks =
      [ ("carried within 1% of offered", abs (m.carried - m.offered) * 100 <= m.offered) ];
    digest = digest m;
    layer =
      [
        ("fabric.step.ns_per_call", Span.per_call "fabric.step" (fun s -> s.total_ns));
        ("fabric.step.words_per_call", Span.per_call "fabric.step" (fun s -> s.total_words));
        ("fabric.inject.self_ms", Span.self_ms "fabric.inject");
        ("fabric.harness.self_ms", Span.self_ms "fabric.harness.run");
        ("matching.iterations_mean", get h.hist_mean "fabric.match.iterations");
        ("matching.size_mean", get h.hist_mean "fabric.match.size");
        ( "fabric.voq_occupancy_max",
          List.fold_left
            (fun acc (k, v) -> if String.ends_with ~suffix:".voq.occupancy" k then Float.max acc v else acc)
            0.0 h.gauges_max );
        ("fabric.cell_p99_us", m.p99_delay *. cell_us);
      ];
    engine_span = "";
  }

(* ---- dataplane-fattree8 --------------------------------------------- *)

let dataplane ctx =
  let k = 8 and frame = 128 in
  let duration = if ctx.quick then Time.ms 2 else Time.ms 8 in
  let g, _ = Span.run "topo.build" (fun () -> Topo.Build.fat_tree ~k) in
  let net = Span.run "an2.network.create" (fun () -> An2.Network.create ~frame g) in
  let bwc = Span.run "an2.admission.create" (fun () -> An2.Bandwidth_central.create net) in
  let rng = Rng.create ctx.seed in
  let ok what = function Ok vc -> vc | Error e -> failwith (what ^ ": " ^ e) in
  let cbrs =
    List.init 24 (fun _ ->
        let src_host, dst_host = cross_pod_pair rng ~k in
        Span.run "an2.admission.request" (fun () ->
            An2.Bandwidth_central.request bwc ~src_host ~dst_host ~cells:4)
        |> Result.map_error (Format.asprintf "%a" An2.Bandwidth_central.pp_denial)
        |> ok "guaranteed admission")
  in
  let best_effort () =
    let src_host, dst_host = cross_pod_pair rng ~k in
    Span.run "an2.network.setup_best_effort" (fun () ->
        An2.Network.setup_best_effort net ~src_host ~dst_host)
    |> ok "best-effort setup"
  in
  (* Best effort is spread over 64 circuits at 0.075 of link rate each,
     enough that nearly every switch carries some for any seed: the
     per-slot cost of a switch depends on whether it does. *)
  let paced = List.init 32 (fun _ -> best_effort ()) in
  let packets = List.init 32 (fun _ -> best_effort ()) in
  let sources =
    List.map (fun vc -> An2.Netrun.Cbr vc) cbrs
    @ List.map (fun vc -> An2.Netrun.Paced_be (vc, 0.075)) paced
    @ List.map (fun vc -> An2.Netrun.Packets_be (vc, 0.075, 1500)) packets
  in
  (* The first aggregation-core link fails at 2/5 of the run; repair
     lands a fiftieth of the run later. *)
  let cut = k * k * k / 4 in
  let fail_at = 2 * duration / 5 in
  let fix_at = fail_at + (duration / 50) in
  let events =
    [
      (fail_at, An2.Netrun.Fail_link cut);
      (fix_at, An2.Netrun.Reroute_be);
      (fix_at, An2.Netrun.Reroute_guaranteed bwc);
    ]
  in
  (* Re-admission rewrites paths: record them before the run. *)
  let original = List.map (fun (vc : An2.Network.vc) -> (vc.vc_id, vc.links, List.length vc.switches)) cbrs in
  let params = { An2.Netrun.default_params with seed = ctx.seed } in
  let r =
    timed (fun () ->
        Span.run ~composite:true "an2.netrun.run" (fun () ->
            An2.Netrun.run ?obs:ctx.obs net params ~sources ~events ~duration ()))
  in
  let stats id = List.assoc id r.per_vc in
  let sum f = List.fold_left (fun acc (_, s) -> acc + f s) 0 r.per_vc in
  let sent = sum (fun s -> s.An2.Netrun.sent) and dropped = sum (fun s -> s.An2.Netrun.dropped) in
  (* E6: p (2f + l) for a p-switch path, frame time f, 1 us links. *)
  let f_us = Time.to_us (frame * params.cell_time) in
  let bound_held =
    List.for_all
      (fun (id, links, p) ->
        let s = stats id in
        List.mem cut links || (s.dropped = 0 && s.max_latency_us <= float_of_int p *. ((2.0 *. f_us) +. 1.0)))
      original
  in
  let cbr_p99 = List.fold_left (fun acc (id, _, _) -> Float.max acc (stats id).p99_latency_us) 0.0 original in
  let cbr_delivered = List.fold_left (fun acc (id, _, _) -> acc + (stats id).delivered) 0 original in
  {
    sim_s = Time.to_s duration;
    ops = float_of_int (Topo.Graph.switch_count g * (duration / params.cell_time));
    ok_frac = 1.0 -. ratio (float_of_int dropped) (float_of_int sent);
    sims =
      [
        sim "cell_p99_us" "us" cbr_p99 ~count:cbr_delivered;
        sim "cells_sent" "count" (float_of_int sent);
        sim "cells_dropped" "count" (float_of_int dropped);
      ];
    checks = [ ("guaranteed circuits off the cut hold p(2f+l) with zero drops", bound_held) ];
    digest = digest r;
    layer =
      [
        ("an2.netrun.self_ms", Span.self_ms "an2.netrun.run");
        ("an2.netrun.cells_delivered", float_of_int (sum (fun s -> s.An2.Netrun.delivered)));
        ("an2.netrun.dark_circuits", float_of_int r.dark_circuits);
        ("an2.netrun.cell_p99_us", cbr_p99);
      ];
    engine_span = "an2.netrun.run";
  }

(* ---- control-srclan / control-fattree16 ----------------------------- *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* [Faults.Tps.run_point] rebuilt from the same public calls, so that
   each call into a layer can carry a span. The control workloads check
   on every traced rep that it returns the library's point exactly. *)
let traced_run_point ~obs ~graph (config : Faults.Tps.config) (profile : An2.Workload.profile) =
  let module L = An2.Lifecycle in
  let module S = An2.Bandwidth_central.Service in
  let module N = An2.Network in
  let module W = An2.Workload in
  if config.schedule <> [] || config.gc_every > 0 then
    invalid_arg "traced_run_point: fault schedules and periodic gc are not reproduced";
  let engine = Netsim.Engine.create ~obs () in
  let net = Span.run "an2.network.create" (fun () -> N.create ~frame:config.frame graph) in
  let lc = L.create ~obs ~engine net config.lifecycle in
  let svc = S.create ~obs ~engine ~shards:config.shards net config.service in
  let arrivals =
    Span.run "an2.workload.expand" (fun () -> W.expand profile ~hosts:(Topo.Graph.host_count graph))
  in
  let n_arrivals = List.length arrivals in
  let latencies = ref [] in
  let record_latency at = latencies := Time.to_us (Netsim.Engine.now engine - at) :: !latencies in
  List.iter
    (fun (a : W.arrival) ->
      Netsim.Engine.post_at engine ~at:a.at (fun () ->
          if a.cells = 0 then
            Span.run "an2.lifecycle.setup" (fun () ->
                L.setup lc ~src_host:a.src_host ~dst_host:a.dst_host ~on_done:(function
                  | Ok vc ->
                    record_latency a.at;
                    Netsim.Engine.post engine ~delay:a.hold (fun () ->
                        match N.find_vc net vc.N.vc_id with
                        | Some vc' when vc' == vc -> Span.run "an2.network.teardown" (fun () -> N.teardown net vc)
                        | _ -> ())
                  | Error _ -> ()))
          else
            Span.run "an2.admission.submit" (fun () ->
                S.submit svc ~src_host:a.src_host ~dst_host:a.dst_host ~cells:a.cells ~on_done:(function
                  | Ok vc ->
                    record_latency a.at;
                    Netsim.Engine.post engine ~delay:a.hold (fun () ->
                        Span.run "an2.admission.release" (fun () -> S.release svc vc))
                  | Error _ -> ()))))
    arrivals;
  let windows = max 2 config.windows in
  let curve = Array.make windows (0.0, 0) in
  let duration = profile.duration in
  for i = 0 to windows - 1 do
    let at = (i + 1) * duration / windows in
    Netsim.Engine.post_at engine ~at (fun () -> curve.(i) <- (Time.to_s at, L.in_flight lc + S.in_flight svc))
  done;
  Span.run "netsim.engine.run" (fun () -> Netsim.Engine.run engine);
  let ls = L.stats lc and ss = S.stats svc in
  let sorted = Array.of_list !latencies in
  Array.sort compare sorted;
  let backlogs = Array.map snd curve in
  let final = backlogs.(windows - 1) and mid = backlogs.((windows / 2) - 1) in
  let th = Faults.Tps.default_thresholds in
  let failed = ls.failed in
  let point =
    {
      Faults.Tps.rate = profile.base_rate;
      offered_rate = float_of_int n_arrivals /. Time.to_s duration;
      arrivals = n_arrivals;
      established = ls.established;
      failed;
      granted = ss.granted;
      denied = ss.denied_no_route + ss.denied_no_capacity;
      cross_shard = ss.cross_shard;
      escrow_conflicts = ss.escrow_conflicts;
      batch_flushes = ss.batch_flushes;
      cache_hits = ls.route_cache_hits;
      cache_misses = ls.route_cache_misses;
      p50_us = percentile sorted 0.50;
      p99_us = percentile sorted 0.99;
      max_us = percentile sorted 1.0;
      worst_signaling_backlog = ls.worst_backlog;
      worst_admission_backlog = ss.worst_backlog;
      backlog_curve = curve;
      peak_backlog = Array.fold_left max 0 backlogs;
      final_backlog = final;
      diverged =
        (final > th.final_backlog_min && float_of_int final > th.final_over_mid *. float_of_int mid)
        || float_of_int failed *. 100.0 > th.terminal_failure_pct *. float_of_int n_arrivals;
      drained = L.in_flight lc = 0 && S.in_flight svc = 0;
      sim_events = Netsim.Engine.dispatched engine;
    }
  in
  (point, arrivals)

(* Replay probe: the route lookup [Lifecycle] makes on a cache miss,
   over every best-effort arrival pair. ns per lookup. *)
let route_probe graph (arrivals : An2.Workload.arrival list) =
  let net = An2.Network.create graph in
  let lookups = ref 0 in
  let (), ns =
    time_ns (fun () ->
        List.iter
          (fun (a : An2.Workload.arrival) ->
            if a.cells = 0 then begin
              incr lookups;
              match
                (An2.Network.host_attachment net a.src_host, An2.Network.host_attachment net a.dst_host)
              with
              | Ok (s, _), Ok (d, _) -> (
                match Topo.Paths.route graph ~src:s ~dst:d with
                | Some path ->
                  ignore (An2.Network.links_of_switch_path net ~src_host:a.src_host ~dst_host:a.dst_host path)
                | None -> ())
              | _ -> ()
            end)
          arrivals)
  in
  ratio (float_of_int ns) (float_of_int !lookups)

(* Replay probe: synchronous admission over the guaranteed arrivals,
   each circuit released once its hold has expired. ns per request or
   release. *)
let admission_probe graph ~shards ~frame (arrivals : An2.Workload.arrival list) =
  let net = An2.Network.create ~frame graph in
  let bwc = An2.Bandwidth_central.create ~shards net in
  let module M = Map.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let live = ref M.empty and calls = ref 0 in
  let release_until t =
    let rec go () =
      match M.min_binding_opt !live with
      | Some (((expiry, _) as key), vc) when expiry <= t ->
        live := M.remove key !live;
        incr calls;
        An2.Bandwidth_central.release bwc vc;
        go ()
      | _ -> ()
    in
    go ()
  in
  let (), ns =
    time_ns (fun () ->
        List.iter
          (fun (a : An2.Workload.arrival) ->
            if a.cells > 0 then begin
              release_until a.at;
              incr calls;
              match An2.Bandwidth_central.request bwc ~src_host:a.src_host ~dst_host:a.dst_host ~cells:a.cells with
              | Ok vc -> live := M.add (a.at + a.hold, vc.An2.Network.vc_id) vc !live
              | Error _ -> ()
            end)
          arrivals;
        release_until max_int)
  in
  ratio (float_of_int ns) (float_of_int !calls)

let control ~build ~rate ~duration ctx =
  let graph = Span.run "topo.build" build in
  let config = Faults.Tps.improved_config in
  let profile =
    An2.Workload.scale
      (An2.Workload.with_seed { An2.Workload.default_profile with duration } ctx.seed)
      ~rate
  in
  let (p : Faults.Tps.point), layer, traced_checks =
    match ctx.obs with
    | None -> (timed (fun () -> Faults.Tps.run_point ~graph config profile), [], [])
    | Some obs ->
      let p, arrivals = timed (fun () -> traced_run_point ~obs ~graph config profile) in
      let library = Faults.Tps.run_point ~graph:(build ()) config profile in
      ( p,
        [
          ("an2.workload.expand_ms", Span.self_ms "an2.workload.expand");
          ("an2.lifecycle.setup.self_ms", Span.self_ms "an2.lifecycle.setup");
          ("an2.admission.submit.self_ms", Span.self_ms "an2.admission.submit");
          ("an2.admission.release.self_ms", Span.self_ms "an2.admission.release");
          ("an2.network.teardown.self_ms", Span.self_ms "an2.network.teardown");
          ("an2.continuations.self_ms", Span.self_ms "netsim.engine.run");
          ("an2.lifecycle.setup_p50_us", p.p50_us);
          ("an2.lifecycle.setup_p99_us", p.p99_us);
          ("topo.route.ns_per_call", route_probe graph arrivals);
          ( "an2.admission.request.ns_per_call",
            admission_probe graph ~shards:config.shards ~frame:config.frame arrivals );
        ],
        [ ("traced point equals Tps.run_point", p = library) ] )
  in
  let completed = p.established + p.granted in
  {
    sim_s = Time.to_s duration;
    ops = float_of_int p.arrivals;
    ok_frac = 1.0 -. ratio (float_of_int (p.failed + p.denied)) (float_of_int p.arrivals);
    sims =
      [
        sim "setup_p50_us" "us" p.p50_us ~count:completed;
        sim "setup_p99_us" "us" p.p99_us ~count:completed;
        sim "arrivals" "count" (float_of_int p.arrivals);
        sim "diverged" "bool" (if p.diverged then 1.0 else 0.0);
      ];
    (* The backlog-curve divergence verdict is reported, not checked: on
       these run lengths a Pareto burst landing in the last sample window,
       or a rare giant one, trips it for about one seed in twenty. *)
    checks =
      [
        ("drained", p.drained);
        ("every arrival resolved once", p.established + p.failed + p.granted + p.denied = p.arrivals);
      ]
      @ traced_checks;
    digest = digest p;
    layer;
    engine_span = "netsim.engine.run";
  }

(* ---- soak-fattree8 -------------------------------------------------- *)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let soak ctx =
  let module Soak = Faults.Soak in
  let g, _ = Span.run "topo.build" (fun () -> Topo.Build.fat_tree ~k:8) in
  let cfg =
    {
      Soak.default_config with
      total = Time.s (if ctx.quick then 20 else 40);
      rate = 1000.0;
      seed = ctx.seed;
    }
  in
  let dir = Filename.concat ctx.out_dir (Printf.sprintf "soak-%d" (Unix.getpid ())) in
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () ->
      let r =
        timed (fun () ->
            Span.run ~composite:true "faults.soak.run" (fun () ->
                Soak.run ?obs:ctx.obs ~dir ~mk_graph:(fun () -> g) cfg))
      in
      let cks = r.checkpoints in
      let layer =
        if not (traced ctx) then []
        else begin
          let h = harvest ctx.obs in
          let files = List.map (fun (c : Soak.checkpoint) -> Soak.ckpt_path dir c.ck_window) cks in
          let (), read_ns = time_ns (fun () -> List.iter (fun f -> ignore (Netsim.Snapshot.read_file f)) files) in
          (* Audit probes on up to eight checkpoints spread over the run. *)
          let n = List.length files in
          let probes = List.filteri (fun i _ -> n <= 8 || i mod (n / 8) = 0) files in
          let (), audit_ns = time_ns (fun () -> List.iter (fun f -> ignore (Soak.audit_file cfg f)) probes) in
          [
            ("faults.soak.self_ms", Span.self_ms "faults.soak.run");
            ("faults.audit_ms_per_probe", ms_of_ns audit_ns /. float_of_int (max 1 (List.length probes)));
            ("faults.soak.audits", float_of_int r.audits_run);
            ("netsim.snapshot.write_ms", ms_of_ns (List.fold_left (fun a (c : Soak.checkpoint) -> a + c.ck_write_ns) 0 cks));
            ("netsim.snapshot.bytes", float_of_int (List.fold_left (fun a (c : Soak.checkpoint) -> a + c.ck_bytes) 0 cks));
            ("netsim.snapshot.read_ms", ms_of_ns read_ns);
            ("reconfig.rounds", float_of_int r.reconfigs);
            ("reconfig.messages", get h.counters "reconfig.messages");
            ("reconfig.wire_transmissions", get h.counters "reconfig.wire_transmissions");
          ]
        end
      in
      let wall_free =
        { r with wall_s = 0.0; checkpoints = List.map (fun (c : Soak.checkpoint) -> { c with ck_write_ns = 0 }) cks }
      in
      {
        sim_s = Time.to_s r.sim_time;
        ops = float_of_int r.arrivals;
        ok_frac = 1.0 -. ratio (float_of_int (r.failed + r.denied)) (float_of_int r.arrivals);
        sims =
          [
            sim "arrivals" "count" (float_of_int r.arrivals);
            sim "reconfigs" "count" (float_of_int r.reconfigs);
            sim "checkpoints" "count" (float_of_int (List.length cks));
          ];
        checks =
          [
            ("no audit violation", r.violation = None);
            ("every audit clean", r.audits_run > 0 && r.audits_clean = r.audits_run);
          ];
        digest = digest wall_free;
        layer;
        engine_span = "faults.soak.run";
      })

(* ---- reconfig-fattree32 --------------------------------------------- *)

let reconfig ctx =
  let k = if ctx.quick then 8 else 32 in
  let g, _ = Span.run "topo.build" (fun () -> Topo.Build.fat_tree ~k) in
  (* A seeded intra-pod (edge-aggregation) link: global repair. *)
  let cut = Rng.int (Rng.create ctx.seed) (k * k * k / 4) in
  let domains = min 2 (Domain.recommended_domain_count ()) in
  let (o : Reconfig.Runner.outcome) =
    timed (fun () ->
        Span.run "reconfig.run" (fun () ->
            Reconfig.Runner.run_after_failure ?obs:ctx.obs ~partitions:4 ~domains g ~fail:(`Link cut)))
  in
  let switches = Array.length o.switch_views in
  let good =
    Array.fold_left
      (fun acc (v : Reconfig.Runner.switch_view) ->
        if v.view_completed <> None && v.view_topology_ok then acc + 1 else acc)
      0 o.switch_views
  in
  let rounds = List.sort_uniq compare (List.map (fun (_, tag, _, _) -> tag) o.completions) in
  let h = harvest ctx.obs in
  let span_ns = float_of_int (Span.total_ns "reconfig.run") in
  let wall_workers = span_ns *. float_of_int domains in
  {
    sim_s = Time.to_s o.elapsed;
    ops = float_of_int o.messages;
    ok_frac = float_of_int good /. float_of_int switches;
    sims =
      [
        sim "repair_ms" "ms" (Time.to_ms o.elapsed);
        sim "messages" "count" (float_of_int o.messages);
      ];
    checks = [ ("converged, agreed and correct", o.converged && o.agreement && o.topology_correct) ];
    digest = digest o;
    layer =
      (if not (traced ctx) then []
       else
         [
           ("reconfig.run.self_ms", Span.self_ms "reconfig.run");
           ("reconfig.messages", float_of_int o.messages);
           ("reconfig.wire_transmissions", float_of_int o.wire_transmissions);
           ("reconfig.ns_per_message", ratio span_ns (float_of_int o.messages));
           ("reconfig.rounds", float_of_int (List.length rounds));
           ("reconfig.repair_ms", Time.to_ms o.elapsed);
           ("netsim.cluster.windows", get h.counters "parprof.p0.windows");
           ( "netsim.cluster.busy_frac",
             ratio (sum_matching h.counters ~prefix:"parprof.p" ~suffix:".busy_ns") wall_workers );
           ( "netsim.cluster.barrier_wait_frac",
             ratio (sum_matching h.counters ~prefix:"parprof.d" ~suffix:".wait_ns") wall_workers );
           ("netsim.cluster.mailbox_msgs", sum_matching h.counters ~prefix:"parprof.p" ~suffix:".mailbox_enqueued");
         ]);
    engine_span = "reconfig.run";
  }

(* ---- registry ------------------------------------------------------- *)

type workload = { w_name : string; why : string; run : ctx -> outcome }

let all =
  [
    {
      w_name = "fabric-bursty";
      why =
        "PIM matching and the VOQ slot loop do nearly all the work and the event engine none";
      run = fabric;
    };
    {
      w_name = "dataplane-fattree8";
      why =
        "engine dispatch heavy: per-switch slot clocks, credit-gated best effort, frame schedules and a link failover";
      run = dataplane;
    };
    {
      w_name = "control-srclan";
      why =
        "circuit setup below the knee where the route cache almost always hits: signaling and sharded admission dominate";
      run =
        (fun ctx ->
          control
            ~build:(fun () -> Topo.Build.src_lan ())
            ~rate:20_000.0
            ~duration:(if ctx.quick then Time.ms 200 else Time.s 4)
            ctx);
    };
    {
      w_name = "control-fattree16";
      why =
        "the same setups on 320 switches where the route cache almost always misses: route computation and escrow dominate";
      (* fat-tree:8 is past its knee at 20,000/s, so the quick variant
         offers half that. *)
      run =
        (fun ctx ->
          if ctx.quick then
            control ~build:(fun () -> fst (Topo.Build.fat_tree ~k:8)) ~rate:10_000.0 ~duration:(Time.ms 100) ctx
          else
            control ~build:(fun () -> fst (Topo.Build.fat_tree ~k:16)) ~rate:20_000.0 ~duration:(Time.ms 300) ctx);
    };
    {
      w_name = "soak-fattree8";
      why =
        "the composed control plane under churn: the only workload writing snapshots, running audits and nested reconfiguration";
      run = soak;
    };
    {
      w_name = "reconfig-fattree32";
      why =
        "the reconfiguration protocol on 1,280 switches on the two-domain cluster path, where barrier wait can matter";
      run = reconfig;
    };
  ]

let find name = List.find_opt (fun w -> w.w_name = name) all
