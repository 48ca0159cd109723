(* Engine perf-trajectory harness.

   Measures the discrete-event engine core — schedule/dispatch and
   schedule/cancel cycles, and an SRC-LAN control-plane macro — on
   both the production pooled engine and the retained pre-pool
   reference implementation, so the speedup is measured, not asserted.
   A multi-seed reconfiguration sweep (the real protocol runner)
   exercises [Netsim.Sweep] sequentially and in parallel and checks
   the per-seed outcomes agree. Results land in BENCH_engine.json.

   Usage: dune exec bench/engine_perf.exe [-- --smoke] [-- --out FILE] *)

[@@@warning "-32"]

module type ENGINE = sig
  type t
  type event_id

  val no_event : event_id
  val create : ?obs:Obs.Sink.t -> unit -> t
  val now : t -> Netsim.Time.t
  val schedule : t -> delay:Netsim.Time.t -> (unit -> unit) -> event_id
  val post : t -> delay:Netsim.Time.t -> (unit -> unit) -> unit
  val cancel : t -> event_id -> unit
  val pending : t -> int
  val dispatched : t -> int
  val step : t -> bool
  val run : t -> unit
  val run_until : t -> Netsim.Time.t -> unit
end

type sample = { engine : string; name : string; s : Util.sample }

let measure ~engine ~name ~ops f = { engine; name; s = Util.measure ~ops f }

let noop () = ()

(* ------------------------------------------------------------------ *)
(* Micro: bare engine cycles, preallocated thunks so the engine's own
   allocation (and nothing else) shows in words/op. *)

module Micro (E : ENGINE) = struct
  let run ~engine_name ~ops =
    let sched_dispatch =
      let e = E.create () in
      measure ~engine:engine_name ~name:"schedule+dispatch" ~ops (fun () ->
          E.post e ~delay:1 noop;
          ignore (E.step e : bool))
    in
    let backlogged =
      (* Same cycle against a standing backlog of 1024 pending events,
         so sift depth is realistic rather than trivial. *)
      let e = E.create () in
      for _ = 1 to 1024 do
        E.post e ~delay:1_000_000_000 noop
      done;
      measure ~engine:engine_name ~name:"schedule+dispatch-1k-backlog" ~ops
        (fun () ->
          E.post e ~delay:1 noop;
          ignore (E.step e : bool))
    in
    let near_backlog =
      (* A standing backlog of 1024 events inside the engine's wheel
         span, every 4 ns over the next 4096 ns: each dispatch re-posts
         its event 4096 ns on, so the backlog never drains. This is
         the data plane's shape (slot clocks and cell hops due a few
         microseconds ahead); the backlog above sits a second ahead,
         in the overflow heap. *)
      let e = E.create () in
      let rec tick () = E.post e ~delay:4096 tick in
      for i = 0 to 1023 do
        E.post e ~delay:(4 * i) tick
      done;
      measure ~engine:engine_name ~name:"schedule+dispatch-1k-near" ~ops
        (fun () -> ignore (E.step e : bool))
    in
    let sched_cancel =
      (* Cancel then step: the step reaps the corpse, so neither heap
         nor pool grows across iterations. *)
      let e = E.create () in
      measure ~engine:engine_name ~name:"schedule+cancel+reap" ~ops (fun () ->
          let id = E.schedule e ~delay:1 noop in
          E.cancel e id;
          ignore (E.step e : bool))
    in
    [ sched_dispatch; backlogged; near_backlog; sched_cancel ]
end

(* ------------------------------------------------------------------ *)
(* Macro: the SRC-LAN control-plane event pattern. Each delivered
   control message at a switch forwards to its next neighbour
   (round-robin) and re-arms the go-back-N retransmit timer of the
   channel it goes out on — cancelling the previous one — exactly the
   schedule/cancel churn the reliable channels impose during
   reconfiguration. As in [Reconfig.Reliable] there is one timer per
   directed (switch, neighbour) channel, and with a 10 ms timeout
   against ~10 us acks the cancelled timers accumulate as heap corpses
   until reaped, so the heap runs thousands deep — the regime a live
   installation's timer population puts the engine in. Thunks are
   preallocated per switch and per channel, so the measured loop is
   the engine. *)

type macro = {
  events : int;
  ns_per_event : float;
  events_per_sec : float;
  minor_words_per_event : float;
}

module Macro (E : ENGINE) = struct
  let run ~events_target =
    let g = Topo.Build.src_lan () in
    let n = Topo.Graph.switch_count g in
    let nbrs =
      Array.init n (fun s ->
          Array.of_list (List.map fst (Topo.Graph.switch_neighbors g s)))
    in
    (* Directed channel c = chan_base.(s) + j for neighbour index j. *)
    let chan_base = Array.make n 0 in
    let channels = ref 0 in
    for s = 0 to n - 1 do
      chan_base.(s) <- !channels;
      channels := !channels + Array.length nbrs.(s)
    done;
    let channels = !channels in
    let e = E.create () in
    let count = ref 0 in
    let timers = Array.make channels E.no_event in
    let rr = Array.make n 0 in
    let msg_thunk = Array.make n noop in
    let chan_thunk = Array.make channels noop in
    let retransmit_after = Netsim.Time.ms 10 in
    let msg s =
      incr count;
      if !count < events_target then begin
        let k = nbrs.(s) in
        let j = rr.(s) in
        let d = k.(j) in
        rr.(s) <- (if j + 1 = Array.length k then 0 else j + 1);
        (* The ack for the channel's previous message has landed:
           disarm and re-arm its retransmit timer. *)
        let c = chan_base.(s) + j in
        E.cancel e timers.(c);
        timers.(c) <- E.schedule e ~delay:retransmit_after chan_thunk.(c);
        (* The message itself: one link hop plus line-card time. *)
        E.post e ~delay:(Netsim.Time.us 10) msg_thunk.(d)
      end
    in
    for s = 0 to n - 1 do
      msg_thunk.(s) <- (fun () -> msg s);
      for j = 0 to Array.length nbrs.(s) - 1 do
        chan_thunk.(chan_base.(s) + j) <- (fun () -> msg s)
      done;
      E.post e ~delay:0 msg_thunk.(s)
    done;
    let words, elapsed =
      Util.time (fun () ->
          let w0 = Gc.minor_words () in
          E.run e;
          Gc.minor_words () -. w0)
    in
    let events = E.dispatched e in
    {
      events;
      ns_per_event = elapsed *. 1e9 /. float_of_int events;
      events_per_sec = float_of_int events /. elapsed;
      minor_words_per_event = words /. float_of_int events;
    }
end

module Micro_pooled = Micro (Netsim.Engine)
module Micro_reference = Micro (Oracle.Engine_reference)
module Macro_pooled = Macro (Netsim.Engine)
module Macro_reference = Macro (Oracle.Engine_reference)

(* ------------------------------------------------------------------ *)
(* Sweep: the real reconfiguration runner fanned over seeds, run
   sequentially and in parallel; outcomes must match seed for seed. *)

type sweep_result = {
  seeds : int;
  domains : int;
  seq_seconds : float;
  par_seconds : float;
  sweep_speedup : float;
  deterministic : bool;
}

let reconfig_job seed =
  let g = Topo.Build.src_lan () in
  let params =
    {
      Reconfig.Runner.default_params with
      control_loss = 0.05;
      retransmit_after = Netsim.Time.ms 1;
      seed;
    }
  in
  let o = Reconfig.Runner.run_after_failure ~params g ~fail:(`Switch 4) in
  (o.converged, o.elapsed, o.messages, o.wire_transmissions)

let sweep_bench ~seeds =
  let seed_list = List.init seeds (fun i -> i) in
  let seq, seq_seconds =
    Util.time (fun () ->
        Netsim.Sweep.map ~domains:1 ~seeds:seed_list reconfig_job)
  in
  (* Genuinely parallel even on a single-core box: force at least two
     domains so the "parallel" row never silently degenerates into a
     second sequential run, and record the count actually used. *)
  let domains = max 2 (Netsim.Sweep.domains_available ()) in
  let par, par_seconds =
    Util.time (fun () ->
        Netsim.Sweep.map ~domains ~seeds:seed_list reconfig_job)
  in
  {
    seeds;
    domains;
    seq_seconds;
    par_seconds;
    sweep_speedup = seq_seconds /. par_seconds;
    deterministic = seq = par;
  }

(* ------------------------------------------------------------------ *)
(* Intra-run: the same SRC-LAN control-plane pattern, but the switches
   are split across a [Netsim.Cluster] — one pooled engine per
   partition advancing in conservative windows of the partitioning's
   lookahead — and driven by 1, 2 and 4 worker domains, skipping any
   count above the cores available (the cluster caps it at the cores,
   so such a row would only repeat a smaller count). Every
   message rides its link's real latency, which is >= the lookahead by
   construction, so cross-partition hops are legal cluster sends; the
   retransmit-timer churn stays partition-local, as it does in the
   reliable channels. Per-engine dispatch counts must be identical at
   every domain count (the cluster's determinism contract), so the
   speedup rows measure the same computation. *)

type intra_run = {
  domains_used : int;
  intra_events : int;
  seconds : float;
  intra_events_per_sec : float;
}

type intra_result = {
  intra_partitions : int;
  lookahead_ns : int;
  cores_available : int;
  runs : intra_run list;
  skipped_domains : int list;  (* domain counts above [cores_available] *)
  intra_deterministic : bool;
      (* per-engine dispatch counts agree across all domain counts *)
  reconfig_macro_deterministic : bool;
      (* full protocol runner at partitions=4: outcome at domains=1
         equals outcome at domains=4 *)
}

let intra_macro ~parts ~domains ~horizon =
  let g = Topo.Build.src_lan () in
  let n = Topo.Graph.switch_count g in
  let part = Topo.Partition.assign g ~parts in
  let parts = 1 + Array.fold_left max 0 part in
  let lookahead =
    match Topo.Partition.lookahead g part with
    | Some l when l >= 1 -> l
    | _ -> failwith "intra_macro: partitioning has no positive lookahead"
  in
  let cl = Netsim.Cluster.create ~parts ~lookahead () in
  let engines = Array.init parts (Netsim.Cluster.engine cl) in
  let nbrs =
    Array.init n (fun s -> Array.of_list (Topo.Graph.switch_neighbors g s))
  in
  let chan_base = Array.make n 0 in
  let channels = ref 0 in
  for s = 0 to n - 1 do
    chan_base.(s) <- !channels;
    channels := !channels + Array.length nbrs.(s)
  done;
  let channels = !channels in
  (* Each slot of these arrays is owned by exactly one partition (its
     switch's), so domains never race on them. *)
  let timers = Array.make channels Netsim.Engine.no_event in
  let rr = Array.make n 0 in
  let msg_thunk = Array.make n noop in
  let chan_thunk = Array.make channels noop in
  let retransmit_after = Netsim.Time.ms 10 in
  let msg s =
    let k = nbrs.(s) in
    let j = rr.(s) in
    let d, lid = k.(j) in
    rr.(s) <- (if j + 1 = Array.length k then 0 else j + 1);
    let c = chan_base.(s) + j in
    let e = engines.(part.(s)) in
    Netsim.Engine.cancel e timers.(c);
    timers.(c) <-
      Netsim.Engine.schedule e ~delay:retransmit_after chan_thunk.(c);
    let lat = (Topo.Graph.link g lid).latency in
    if part.(d) = part.(s) then Netsim.Engine.post e ~delay:lat msg_thunk.(d)
    else Netsim.Cluster.send cl ~src:part.(s) ~dst:part.(d) ~delay:lat
        msg_thunk.(d)
  in
  for s = 0 to n - 1 do
    msg_thunk.(s) <- (fun () -> msg s);
    for j = 0 to Array.length nbrs.(s) - 1 do
      chan_thunk.(chan_base.(s) + j) <- (fun () -> msg s)
    done;
    Netsim.Engine.post engines.(part.(s)) ~delay:0 msg_thunk.(s)
  done;
  let (), seconds =
    Util.time (fun () -> Netsim.Cluster.run ~domains cl ~horizon)
  in
  let per_engine = Array.map Netsim.Engine.dispatched engines in
  let intra_events = Array.fold_left ( + ) 0 per_engine in
  ( {
      domains_used = domains;
      intra_events;
      seconds;
      intra_events_per_sec = float_of_int intra_events /. seconds;
    },
    per_engine )

let reconfig_cluster_run ~obs ~domains =
  let g = Topo.Build.src_lan () in
  let params =
    {
      Reconfig.Runner.default_params with
      control_loss = 0.05;
      retransmit_after = Netsim.Time.ms 1;
      seed = 11;
    }
  in
  let o =
    Reconfig.Runner.run_after_failure ~params ~obs ~partitions:4 ~domains g
      ~fail:(`Switch 4)
  in
  (o.converged, o.elapsed, o.messages, o.wire_transmissions)

let reconfig_cluster_outcome ~domains =
  reconfig_cluster_run ~obs:Obs.Sink.null ~domains

(* Observability cost on the partitioned macro: the same reconfig run
   with a null sink vs a full sink (metrics + trace + Parprof window
   profiler + flow tracing), plus the per-domain busy/wait split the
   profiler reports. Timed over [repeats] runs, keeping the best. The
   4 partitions ask for 4 worker domains; the cluster caps that at the
   cores, and the profiler records the count it ran. *)
type parprof_result = {
  parprof_domains : int;
  obs_off_seconds : float;
  obs_on_seconds : float;
  obs_overhead_pct : float;
  obs_outcome_identical : bool;
  domain_split : (int * float * float) array;
      (* (domain, busy %, barrier-wait %) of its profiled wall time *)
}

let parprof_bench ~repeats =
  let domains = 4 in
  let best obs_of =
    let rec go k best_s last =
      if k = 0 then (best_s, Option.get last)
      else
        let obs = obs_of () in
        let o, s = Util.time (fun () -> reconfig_cluster_run ~obs ~domains) in
        go (k - 1) (Float.min best_s s) (Some (o, obs))
    in
    go repeats infinity None
  in
  let off_seconds, (off_outcome, _) = best (fun () -> Obs.Sink.null) in
  let on_seconds, (on_outcome, obs) = best (fun () -> Obs.Sink.create ()) in
  let m = Obs.Sink.metrics obs in
  let cval name = Obs.Metrics.Counter.value (Obs.Metrics.counter m name) in
  let workers = max 1 (cval "parprof.workers") in
  let parts = max workers (cval "parprof.parts") in
  let domain_split =
    Array.init workers (fun d ->
        let busy = ref 0 in
        let p = ref d in
        while !p < parts do
          busy := !busy + cval (Printf.sprintf "parprof.p%d.busy_ns" !p);
          p := !p + workers
        done;
        let wait = cval (Printf.sprintf "parprof.d%d.wait_ns" d) in
        let total = float_of_int (!busy + wait) in
        if total > 0.0 then
          ( d,
            100.0 *. float_of_int !busy /. total,
            100.0 *. float_of_int wait /. total )
        else (d, 0.0, 0.0))
  in
  {
    parprof_domains = workers;
    obs_off_seconds = off_seconds;
    obs_on_seconds = on_seconds;
    obs_overhead_pct = 100.0 *. ((on_seconds /. off_seconds) -. 1.0);
    obs_outcome_identical = off_outcome = on_outcome;
    domain_split;
  }

let intra_bench ~parts ~horizon =
  let cores_available = Netsim.Sweep.domains_available () in
  let run_domains, skipped_domains =
    List.partition (fun d -> d <= cores_available) [ 1; 2; 4 ]
  in
  let counts = ref [] in
  let runs =
    List.map
      (fun domains ->
        let r, per_engine = intra_macro ~parts ~domains ~horizon in
        counts := per_engine :: !counts;
        r)
      run_domains
  in
  let intra_deterministic =
    match !counts with
    | [] -> false
    | ref_counts :: rest -> List.for_all (( = ) ref_counts) rest
  in
  let reconfig_macro_deterministic =
    reconfig_cluster_outcome ~domains:1 = reconfig_cluster_outcome ~domains:4
  in
  let g = Topo.Build.src_lan () in
  let part = Topo.Partition.assign g ~parts in
  let lookahead_ns =
    match Topo.Partition.lookahead g part with Some l -> l | None -> 0
  in
  {
    intra_partitions = parts;
    lookahead_ns;
    cores_available;
    runs;
    skipped_domains;
    intra_deterministic;
    reconfig_macro_deterministic;
  }

(* ------------------------------------------------------------------ *)

let () =
  let cli = Util.cli ~default_out:"BENCH_engine.json" in
  let ops = if cli.smoke then 20_000 else 1_000_000 in
  let events_target = if cli.smoke then 100_000 else 2_000_000 in
  let sweep_seeds = if cli.smoke then 4 else 16 in
  let samples =
    Micro_pooled.run ~engine_name:"pooled" ~ops
    @ Micro_reference.run ~engine_name:"reference" ~ops
  in
  let mac_pool = Macro_pooled.run ~events_target in
  let mac_ref = Macro_reference.run ~events_target in
  let sw = sweep_bench ~seeds:sweep_seeds in
  (* Horizon sized so the partitioned macro dispatches on the order of
     [events_target] events: each switch keeps one message in flight
     hopping every link latency. *)
  let intra_horizon =
    if cli.smoke then Netsim.Time.ms 20 else Netsim.Time.ms 100
  in
  let intra = intra_bench ~parts:4 ~horizon:intra_horizon in
  Printf.printf "micro (%d ops each):\n" ops;
  List.iter
    (fun { engine; name; s } ->
      Printf.printf "  %-9s %-30s %8.1f ns/op %8.2f words/op\n" engine name
        s.ns_per_op s.words_per_op)
    samples;
  Printf.printf
    "macro srclan-control: reference %.2f Mev/s, pooled %.2f Mev/s (%.2fx), \
     pooled %.2f words/event\n"
    (mac_ref.events_per_sec /. 1e6)
    (mac_pool.events_per_sec /. 1e6)
    (mac_pool.events_per_sec /. mac_ref.events_per_sec)
    mac_pool.minor_words_per_event;
  Printf.printf
    "sweep reconfig x%d: seq %.2fs, par %.2fs on %d domains (%.2fx), \
     deterministic %b\n"
    sw.seeds sw.seq_seconds sw.par_seconds sw.domains sw.sweep_speedup
    sw.deterministic;
  Printf.printf "intra srclan-control, %d partitions (%d cores available):\n"
    intra.intra_partitions intra.cores_available;
  List.iter
    (fun r ->
      Printf.printf "  %d domains: %d events in %.2fs = %.2f Mev/s\n"
        r.domains_used r.intra_events r.seconds
        (r.intra_events_per_sec /. 1e6))
    intra.runs;
  List.iter
    (Printf.printf "  %d domains: skipped (more than the cores available)\n")
    intra.skipped_domains;
  Printf.printf "intra deterministic %b, reconfig macro deterministic %b\n"
    intra.intra_deterministic intra.reconfig_macro_deterministic;
  let pp = parprof_bench ~repeats:(if cli.smoke then 2 else 5) in
  Printf.printf
    "parprof reconfig 4 partitions x %d domains: obs off %.3fs, obs on %.3fs \
     (overhead %.1f%%), outcome identical %b\n"
    pp.parprof_domains pp.obs_off_seconds pp.obs_on_seconds pp.obs_overhead_pct
    pp.obs_outcome_identical;
  Array.iter
    (fun (d, busy, wait) ->
      Printf.printf "  domain %d: busy %.1f%%, barrier wait %.1f%%\n" d busy
        wait)
    pp.domain_split;
  let open Obs.Json in
  let macro (m : macro) =
    Obj
      [
        ("events", Util.int m.events);
        ("ns_per_event", Num m.ns_per_event);
        ("events_per_sec", Num m.events_per_sec);
        ("minor_words_per_event", Num m.minor_words_per_event);
      ]
  in
  let base =
    match List.find_opt (fun r -> r.domains_used = 1) intra.runs with
    | Some r -> r.intra_events_per_sec
    | None -> nan
  in
  let find engine name =
    (List.find (fun s -> s.engine = engine && s.name = name) samples).s
  in
  let dispatch = "schedule+dispatch" in
  Util.write_json cli ~schema:"an2-engine-perf-v1"
    [
      ( "micro",
        Arr
          (List.map
             (fun { engine; name; s } ->
               Obj
                 [
                   ("engine", Str engine);
                   ("name", Str name);
                   ("ops", Util.int s.ops);
                   ("ns_per_op", Num s.ns_per_op);
                   ("minor_words_per_op", Num s.words_per_op);
                 ])
             samples) );
      ( "macro",
        Obj
          [
            ("model", Str "srclan-control-plane");
            ("reference", macro mac_ref);
            ("pooled", macro mac_pool);
          ] );
      ( "sweep",
        Obj
          [
            ("model", Str "reconfig-srclan-fail-switch-loss-0.05");
            ("seeds", Util.int sw.seeds);
            ("domains", Util.int sw.domains);
            ("seq_seconds", Num sw.seq_seconds);
            ("par_seconds", Num sw.par_seconds);
            ("speedup", Num sw.sweep_speedup);
            ("deterministic", Bool sw.deterministic);
          ] );
      ( "intra",
        Obj
          [
            ("model", Str "srclan-control-plane-partitioned");
            ("partitions", Util.int intra.intra_partitions);
            ("lookahead_ns", Util.int intra.lookahead_ns);
            ("cores_available", Util.int intra.cores_available);
            ( "runs",
              Arr
                (List.map
                   (fun r ->
                     Obj
                       [
                         ("domains", Util.int r.domains_used);
                         ("events", Util.int r.intra_events);
                         ("seconds", Num r.seconds);
                         ("events_per_sec", Num r.intra_events_per_sec);
                         ("mev_per_sec", Num (r.intra_events_per_sec /. 1e6));
                         ( "speedup_vs_1_domain",
                           Num (r.intra_events_per_sec /. base) );
                       ])
                   intra.runs) );
            ("skipped_domains", Arr (List.map Util.int intra.skipped_domains));
            ("deterministic", Bool intra.intra_deterministic);
            ( "reconfig_macro_deterministic",
              Bool intra.reconfig_macro_deterministic );
          ] );
      ( "parprof",
        Obj
          [
            ("model", Str "reconfig-srclan-fail-switch-4-partitions");
            ("worker_domains", Util.int pp.parprof_domains);
            ("obs_off_seconds", Num pp.obs_off_seconds);
            ("obs_on_seconds", Num pp.obs_on_seconds);
            ("obs_overhead_pct", Num pp.obs_overhead_pct);
            ("obs_outcome_identical", Bool pp.obs_outcome_identical);
            ( "domains",
              Arr
                (Array.to_list
                   (Array.map
                      (fun (d, busy, wait) ->
                        Obj
                          [
                            ("domain", Util.int d);
                            ("busy_pct", Num busy);
                            ("barrier_wait_pct", Num wait);
                          ])
                      pp.domain_split)) );
          ] );
      ( "derived",
        Obj
          [
            ("macro_events_per_sec_before", Num mac_ref.events_per_sec);
            ("macro_events_per_sec_after", Num mac_pool.events_per_sec);
            ( "macro_speedup",
              Num (mac_pool.events_per_sec /. mac_ref.events_per_sec) );
            ( "schedule_dispatch_speedup",
              Num
                ((find "reference" dispatch).ns_per_op
                /. (find "pooled" dispatch).ns_per_op) );
            ( "pooled_schedule_dispatch_minor_words_per_cycle",
              Num (find "pooled" dispatch).words_per_op );
          ] );
    ]
