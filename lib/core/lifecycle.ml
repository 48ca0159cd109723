type routing =
  | Shortest
  | Updown

type params = {
  proc_delay : Netsim.Time.t;
  setup_timeout : Netsim.Time.t;
  max_attempts : int;
  jitter : float;
  pace : Netsim.Time.t;
  routing : routing;
  seed : int;
  route_cost : Netsim.Time.t;
  route_cost_cached : Netsim.Time.t;
  path_cache : bool;
}

let default_params =
  {
    proc_delay = Netsim.Time.us 100;
    setup_timeout = Netsim.Time.ms 20;
    max_attempts = 8;
    jitter = 0.2;
    pace = Netsim.Time.us 500;
    routing = Shortest;
    seed = 0;
    route_cost = 0;
    route_cost_cached = 0;
    path_cache = true;
  }

(* Retry backoff: the first retry waits 1 ms, each further one doubles
   the wait, up to 100 ms. *)
let backoff_base = Netsim.Time.ms 1
let backoff_max = Netsim.Time.ms 100

type stats = {
  setups : int;
  established : int;
  failed : int;
  attempts : int;
  crankbacks : int;
  timeouts : int;
  retries : int;
  worst_backlog : int;
  gc_reclaimed : int;
  gc_runs : int;
  route_cache_hits : int;
  route_cache_misses : int;
}

(* A route as the crawl uses it: the lists {!Network.assign_route}
   records, and the same path as arrays, which the crawl indexes hop by
   hop. A cached route hands the same arrays to every attempt that hits
   it; nothing writes to them. *)
type route = {
  switches : int list;
  links : int list;
  switch_at : int array;
  link_at : int array;
}

type t = {
  engine : Netsim.Engine.t;
  net : Network.t;
  params : params;
  rng : Netsim.Rng.t;
  (* Per-switch signaling processor: cells are handled one at a time. *)
  busy_until : Netsim.Time.t array;
  queue_len : int array;
  mutable worst_backlog : int;
  mutable in_flight : int;
  claimed : (int, unit) Hashtbl.t;
      (* vc ids with a setup pending, or scheduled by [readmit]: such a
         circuit is not dark, and a second setup on it is a fault *)
  mutable setups : int;
  mutable established : int;
  mutable failed : int;
  mutable attempts : int;
  mutable crankbacks : int;
  mutable timeouts : int;
  mutable retries : int;
  mutable gc_reclaimed : int;
  mutable gc_runs : int;
  (* Legal-path cache, keyed by the graph-version counter: any
     mutation (structural or fail/restore) bumps the version, which
     empties both tables on the next lookup. Pure memoization —
     [route_for] is a function of the graph state alone, so cached
     runs replay byte-identically to uncached ones. *)
  mutable cache_version : int;
  route_cache : (int, (route, string) result) Hashtbl.t;
  orient_cache : (int, Topo.Updown.t) Hashtbl.t;
  mutable route_cache_hits : int;
  mutable route_cache_misses : int;
  obs : Obs.Sink.t;
  c_established : Obs.Metrics.Counter.t;
  c_failed : Obs.Metrics.Counter.t;
  c_attempts : Obs.Metrics.Counter.t;
  c_crankbacks : Obs.Metrics.Counter.t;
  c_timeouts : Obs.Metrics.Counter.t;
  c_retries : Obs.Metrics.Counter.t;
  c_gc_reclaimed : Obs.Metrics.Counter.t;
  c_route_hits : Obs.Metrics.Counter.t;
  c_route_misses : Obs.Metrics.Counter.t;
  g_backlog : Obs.Metrics.Gauge.t;
  h_setup_latency : Obs.Histogram.t;
  h_backlog : Obs.Histogram.t;
}

let create ?(obs = Obs.Sink.null) ~engine net params =
  let n = Topo.Graph.switch_count (Network.graph net) in
  {
    engine;
    net;
    params;
    rng = Netsim.Rng.create params.seed;
    busy_until = Array.make n 0;
    queue_len = Array.make n 0;
    worst_backlog = 0;
    in_flight = 0;
    claimed = Hashtbl.create 64;
    setups = 0;
    established = 0;
    failed = 0;
    attempts = 0;
    crankbacks = 0;
    timeouts = 0;
    retries = 0;
    gc_reclaimed = 0;
    gc_runs = 0;
    cache_version = min_int;
    route_cache = Hashtbl.create 256;
    orient_cache = Hashtbl.create 16;
    route_cache_hits = 0;
    route_cache_misses = 0;
    obs;
    c_established = Obs.Sink.counter obs "lifecycle.established";
    c_failed = Obs.Sink.counter obs "lifecycle.failed";
    c_attempts = Obs.Sink.counter obs "lifecycle.attempts";
    c_crankbacks = Obs.Sink.counter obs "lifecycle.crankbacks";
    c_timeouts = Obs.Sink.counter obs "lifecycle.timeouts";
    c_retries = Obs.Sink.counter obs "lifecycle.retries";
    c_gc_reclaimed = Obs.Sink.counter obs "lifecycle.gc_reclaimed";
    c_route_hits = Obs.Sink.counter obs "lifecycle.route_cache_hits";
    c_route_misses = Obs.Sink.counter obs "lifecycle.route_cache_misses";
    g_backlog = Obs.Sink.gauge obs "lifecycle.worst_signaling_backlog";
    h_setup_latency = Obs.Sink.histogram obs "lifecycle.setup_latency_us";
    h_backlog = Obs.Sink.histogram obs "lifecycle.signaling_backlog";
  }

let in_flight t = t.in_flight

let stats t =
  {
    setups = t.setups;
    established = t.established;
    failed = t.failed;
    attempts = t.attempts;
    crankbacks = t.crankbacks;
    timeouts = t.timeouts;
    retries = t.retries;
    worst_backlog = t.worst_backlog;
    gc_reclaimed = t.gc_reclaimed;
    gc_runs = t.gc_runs;
    route_cache_hits = t.route_cache_hits;
    route_cache_misses = t.route_cache_misses;
  }

let obs_on t = t.obs.Obs.Sink.enabled

(* A switch participates in signaling while it has any working link;
   fail_switch kills them all, so a crashed switch is silent. This is
   checked per signaling cell, so it must not allocate neighbor
   lists. *)
let switch_alive g s =
  Topo.Graph.switch_degree g s > 0
  ||
  let any = ref false in
  Topo.Graph.iter_hosts_of_switch g s (fun _ _ -> any := true);
  !any

(* Recompute a host pair's route on the current topology. *)
let compute_route t ~src_host ~dst_host =
  let g = Network.graph t.net in
  let search =
    match t.params.routing with
    | Shortest -> Topo.Paths.route_links g
    | Updown ->
      fun ~src ~dst ~tail ->
        (* Orientation rooted at the source attachment: any root gives
           a deadlock-free up*/down* discipline, and the source is
           always in its own component. The orientation depends only
           on the graph, so it shares the version-keyed cache. *)
        let orient =
          match Hashtbl.find_opt t.orient_cache src with
          | Some o -> o
          | None ->
            let o = Topo.Updown.orient g (Topo.Spanning.bfs g ~root:src) in
            if t.params.path_cache then Hashtbl.add t.orient_cache src o;
            o
        in
        Topo.Updown.route_links g orient ~src ~dst ~tail
  in
  match Network.route_between t.net ~src_host ~dst_host search with
  | Ok (switches, links) ->
    Ok
      {
        switches;
        links;
        switch_at = Array.of_list switches;
        link_at = Array.of_list links;
      }
  | Error e -> Error e

(* [route_for] additionally reports whether the answer came from the
   cache, so the caller can charge the cached or uncached route cost. *)
let route_for t ~src_host ~dst_host =
  if not t.params.path_cache then begin
    t.route_cache_misses <- t.route_cache_misses + 1;
    if obs_on t then Obs.Metrics.Counter.incr t.c_route_misses;
    (compute_route t ~src_host ~dst_host, false)
  end
  else begin
    let v = Topo.Graph.version (Network.graph t.net) in
    if v <> t.cache_version then begin
      Hashtbl.reset t.route_cache;
      Hashtbl.reset t.orient_cache;
      t.cache_version <- v
    end;
    let key = (src_host lsl 24) lor dst_host in
    match Hashtbl.find_opt t.route_cache key with
    | Some r ->
      t.route_cache_hits <- t.route_cache_hits + 1;
      if obs_on t then Obs.Metrics.Counter.incr t.c_route_hits;
      (r, true)
    | None ->
      t.route_cache_misses <- t.route_cache_misses + 1;
      if obs_on t then Obs.Metrics.Counter.incr t.c_route_misses;
      let r = compute_route t ~src_host ~dst_host in
      Hashtbl.add t.route_cache key r;
      (r, false)
  end

(* One in-progress setup. [epoch] stamps the current attempt: events
   belonging to an abandoned attempt (timeout fired, source moved on)
   compare their stamp and evaporate. The attempt's timeout is one of
   them, and so is every timeout once the setup is [resolved]. *)
type pending = {
  vc : Network.vc;
  on_done : (Network.vc, string) result -> unit;
  submitted_at : Netsim.Time.t;
  mutable attempt_started_at : Netsim.Time.t;
  mutable attempt : int;
  mutable epoch : int;
  mutable path_switches : int array;
  mutable path_links : int array;
  mutable resolved : bool;
}

(* Occupy switch [s]'s signaling processor for [cost]; [k] runs when
   the processor gets to it. The queue includes the cell in service,
   so [k] starts with [leave t s]: folding the decrement into the job
   spares a wrapper closure per queued cell. *)
let process_for t s ~cost k =
  t.queue_len.(s) <- t.queue_len.(s) + 1;
  if obs_on t then
    Obs.Histogram.add t.h_backlog (float_of_int t.queue_len.(s));
  if t.queue_len.(s) > t.worst_backlog then begin
    t.worst_backlog <- t.queue_len.(s);
    if obs_on t then Obs.Metrics.Gauge.set t.g_backlog (float_of_int t.worst_backlog)
  end;
  let start = max (Netsim.Engine.now t.engine) t.busy_until.(s) in
  let finish = start + cost in
  t.busy_until.(s) <- finish;
  Netsim.Engine.post_at t.engine ~at:finish k

let leave t s = t.queue_len.(s) <- t.queue_len.(s) - 1

(* One signaling cell's worth of processing. *)
let process_at t s k = process_for t s ~cost:t.params.proc_delay k

let latency g lid = (Topo.Graph.link g lid).Topo.Graph.latency

let finish t p result =
  if not p.resolved then begin
    p.resolved <- true;
    t.in_flight <- t.in_flight - 1;
    Hashtbl.remove t.claimed p.vc.Network.vc_id;
    (match result with
     | Ok _ ->
       t.established <- t.established + 1;
       if obs_on t then begin
         Obs.Metrics.Counter.incr t.c_established;
         let now = Netsim.Engine.now t.engine in
         Obs.Histogram.add t.h_setup_latency
           (Netsim.Time.to_us (now - p.submitted_at));
         (* The winning crawl: from this attempt's first setup cell to
            the ack closing the loop at the source. *)
         Obs.Sink.span t.obs ~name:"phase.crawl" ~cat:"lifecycle"
           ~ts:p.attempt_started_at ~dur:(now - p.attempt_started_at)
           ~tid:p.vc.Network.vc_id ~v:p.attempt
       end
     | Error _ ->
       t.failed <- t.failed + 1;
       p.vc.Network.paged_out <- true;
       if obs_on t then Obs.Metrics.Counter.incr t.c_failed);
    p.on_done result
  end

let rec start_attempt t p =
  if p.resolved then ()
  else if p.attempt >= t.params.max_attempts then
    finish t p
      (Error
         (Printf.sprintf "vc %d: gave up after %d attempts" p.vc.Network.vc_id
            p.attempt))
  else begin
    p.attempt <- p.attempt + 1;
    p.epoch <- p.epoch + 1;
    t.attempts <- t.attempts + 1;
    p.attempt_started_at <- Netsim.Engine.now t.engine;
    if obs_on t then Obs.Metrics.Counter.incr t.c_attempts;
    match
      route_for t ~src_host:p.vc.Network.src_host ~dst_host:p.vc.Network.dst_host
    with
    | Error _, _ ->
      (* No route right now (partition, dead attachment). The topology
         may heal before we run out of attempts. *)
      retry t p
    | Ok r, cached ->
      Network.assign_route t.net p.vc ~switches:r.switches ~links:r.links;
      p.path_switches <- r.switch_at;
      p.path_links <- r.link_at;
      let epoch = p.epoch in
      Netsim.Engine.post t.engine ~delay:t.params.setup_timeout (fun () ->
          on_timeout t p epoch);
      (* Route computation is charged to the ingress switch's
         signaling processor — the line card resolving the source
         route. A zero cost (the default) launches inline, leaving
         the legacy event sequence untouched. *)
      let cost =
        if cached then t.params.route_cost_cached else t.params.route_cost
      in
      if cost = 0 then launch t p epoch
      else begin
        let s = p.path_switches.(0) in
        process_for t s ~cost (fun () ->
            leave t s;
            if (not p.resolved) && p.epoch = epoch then launch t p epoch)
      end
  end

(* The setup cell leaves the source host over its attachment. Over a
   dead attachment it goes nowhere; the timeout recovers. *)
and launch t p epoch =
  let g = Network.graph t.net in
  if Topo.Graph.link_working g p.path_links.(0) then
    Netsim.Engine.post t.engine ~delay:(latency g p.path_links.(0)) (fun () ->
        setup_arrives t p epoch 0)

and retry t p =
  if p.resolved then ()
  else if p.attempt >= t.params.max_attempts then
    (* Out of attempts: fail now rather than after one more backoff. *)
    finish t p
      (Error
         (Printf.sprintf "vc %d: gave up after %d attempts" p.vc.Network.vc_id
            p.attempt))
  else begin
    t.retries <- t.retries + 1;
    if obs_on t then Obs.Metrics.Counter.incr t.c_retries;
    let retry_at = Netsim.Engine.now t.engine in
    (* Exponential backoff with seeded jitter: base * 2^(attempt-1),
       capped, scaled by a uniform factor in [1-j, 1+j]. *)
    let shift = min (p.attempt - 1) 20 in
    let raw = min backoff_max (backoff_base * (1 lsl shift)) in
    let factor =
      1.0 +. (t.params.jitter *. ((2.0 *. Netsim.Rng.float t.rng 1.0) -. 1.0))
    in
    let delay = max 1 (int_of_float (float_of_int raw *. factor)) in
    (* The backoff itself as a span: gaps between crawl spans on a
       circuit's track are attributable to waiting, not signaling. *)
    Obs.Sink.span t.obs ~name:"phase.retry" ~cat:"lifecycle" ~ts:retry_at
      ~dur:delay ~tid:p.vc.Network.vc_id ~v:p.attempt;
    Netsim.Engine.post t.engine ~delay (fun () -> start_attempt t p)
  end

and on_timeout t p epoch =
  if (not p.resolved) && p.epoch = epoch then begin
    t.timeouts <- t.timeouts + 1;
    if obs_on t then Obs.Metrics.Counter.incr t.c_timeouts;
    (* Abandon the crawl. Entries it installed stay behind as orphans
       until the next gc — the paper's switches forget circuits only
       when told to. *)
    p.epoch <- p.epoch + 1;
    p.vc.Network.paged_out <- true;
    retry t p
  end

(* Setup cell arrives at path hop [i] (switch p.path_switches.(i)). *)
and setup_arrives t p epoch i =
  let s = p.path_switches.(i) in
  process_at t s (fun () ->
      leave t s;
      if p.resolved || p.epoch <> epoch then ()
      else begin
        let g = Network.graph t.net in
        if not (switch_alive g s) then ()
          (* Crashed switch swallows the cell; the timeout recovers. *)
        else begin
          let out = p.path_links.(i + 1) in
          Network.install_hop t.net p.vc ~switch:s ~in_link:p.path_links.(i)
            ~out_link:out;
          if not (Topo.Graph.link_working g out) then crankback t p epoch i
          else if i + 1 < Array.length p.path_switches then
            Netsim.Engine.post t.engine ~delay:(latency g out) (fun () ->
                setup_arrives t p epoch (i + 1))
          else
            (* Last switch: the cell reaches the destination host, which
               acknowledges immediately (§2: data may follow the setup
               cell; the ack closes the loop for the source). *)
            Netsim.Engine.post t.engine ~delay:(2 * latency g out) (fun () ->
                ack_arrives t p epoch i)
        end
      end)

(* Ack crawls back toward the source through hop [i]. *)
and ack_arrives t p epoch i =
  let s = p.path_switches.(i) in
  process_at t s (fun () ->
      leave t s;
      if p.resolved || p.epoch <> epoch then ()
      else begin
        let g = Network.graph t.net in
        let back = p.path_links.(i) in
        if not (switch_alive g s) || not (Topo.Graph.link_working g back) then ()
          (* Swallowed ack: the source times out and retries; the fully
             installed path becomes orphan entries for gc. *)
        else if i = 0 then
          Netsim.Engine.post t.engine ~delay:(latency g back) (fun () ->
              if (not p.resolved) && p.epoch = epoch then finish t p (Ok p.vc))
        else
          Netsim.Engine.post t.engine ~delay:(latency g back) (fun () ->
              ack_arrives t p epoch (i - 1))
      end)

(* Dead next link discovered at path hop [i]: undo the entry just
   installed there (same processing slot), then walk a release cell
   back over the installed prefix, uninstalling at each switch; at the
   source, back off and retry on a route recomputed around the
   failure. A dead link or switch on the way back swallows the release
   — the remaining prefix stays as orphans and the timeout recovers. *)
and crankback t p epoch i =
  t.crankbacks <- t.crankbacks + 1;
  if obs_on t then begin
    Obs.Metrics.Counter.incr t.c_crankbacks;
    Obs.Sink.instant t.obs ~name:"phase.crankback" ~cat:"lifecycle"
      ~ts:(Netsim.Engine.now t.engine) ~tid:p.vc.Network.vc_id ~v:i
  end;
  let g = Network.graph t.net in
  Network.uninstall_entry t.net p.vc ~switch:p.path_switches.(i);
  (* [step j]: the release cell leaves switch index [j] backwards. *)
  let rec step j =
    let back = p.path_links.(j) in
    if not (Topo.Graph.link_working g back) then ()
    else if j = 0 then
      Netsim.Engine.post t.engine ~delay:(latency g back) (fun () ->
          if (not p.resolved) && p.epoch = epoch then begin
            p.epoch <- p.epoch + 1;
            retry t p
          end)
    else
      Netsim.Engine.post t.engine ~delay:(latency g back) (fun () ->
          let prev = p.path_switches.(j - 1) in
          process_at t prev (fun () ->
              leave t prev;
              if p.resolved || p.epoch <> epoch then ()
              else if not (switch_alive g prev) then ()
              else begin
                Network.uninstall_entry t.net p.vc ~switch:prev;
                step (j - 1)
              end))
  in
  step i

(* Mark [vc] as having a setup pending or scheduled. *)
let claim t (vc : Network.vc) =
  if Hashtbl.mem t.claimed vc.vc_id then
    invalid_arg
      (Printf.sprintf "Lifecycle: vc %d already has a setup pending" vc.vc_id);
  Hashtbl.replace t.claimed vc.vc_id ()

(* Start the setup of a claimed circuit. *)
let start t vc ~on_done =
  t.setups <- t.setups + 1;
  t.in_flight <- t.in_flight + 1;
  let p =
    {
      vc;
      on_done;
      submitted_at = Netsim.Engine.now t.engine;
      attempt_started_at = Netsim.Engine.now t.engine;
      attempt = 0;
      epoch = 0;
      path_switches = [||];
      path_links = [||];
      resolved = false;
    }
  in
  start_attempt t p

let setup t ~src_host ~dst_host ~on_done =
  let vc = Network.register_best_effort t.net ~src_host ~dst_host in
  claim t vc;
  start t vc ~on_done

(* The whole batch is claimed now, not as each paced setup starts, so
   a repair that runs before the last one starts cannot pick it up as
   dark again. *)
let readmit t ?(on_circuit = fun _ -> ()) vcs ~on_done =
  List.iter (claim t) vcs;
  let remaining = ref (List.length vcs) in
  if !remaining = 0 then on_done ()
  else
    List.iteri
      (fun i vc ->
        Netsim.Engine.post t.engine ~delay:(i * t.params.pace) (fun () ->
            start t vc ~on_done:(fun r ->
                on_circuit r;
                decr remaining;
                if !remaining = 0 then on_done ())))
      vcs

(* Whether the circuit's path passes [s] through exactly the links of
   [entry]: [Exit] ends the walk at the first such hop. *)
let same_hop s (in_link, out_link) s' in' out' =
  if s = s' && in_link = in' && out_link = out' then raise_notrace Exit

let on_path vc s entry =
  match Network.iter_hops same_hop s entry vc with
  | () -> false
  | exception Exit -> true

(* An installed table entry is legitimate iff its circuit exists, is
   not dark, the switch carries that exact entry on the circuit's
   current path, and every link of that path works. Everything else is
   an orphan: crashed-switch leftovers, timed-out attempts, entries of
   circuits a reconfiguration broke. *)
let orphan_entries t =
  let g = Network.graph t.net in
  let n = Topo.Graph.switch_count g in
  let orphans = ref [] in
  let broken = ref [] in
  (* Hashed id set: membership per table binding must be O(1), or the
     sweep goes quadratic in broken circuits at TPS scale. *)
  let broken_ids = Hashtbl.create 64 in
  Network.iter_vcs t.net (fun vc ->
      if
        (not vc.Network.paged_out)
        && not
             (vc.Network.links <> []
             && List.for_all (Topo.Graph.link_working g) vc.Network.links)
      then begin
        broken := vc :: !broken;
        Hashtbl.replace broken_ids vc.Network.vc_id ()
      end);
  for s = 0 to n - 1 do
    List.iter
      (fun (vc_id, entry) ->
        let keep =
          match Network.find_vc t.net vc_id with
          | None -> false
          | Some vc ->
            (not vc.Network.paged_out)
            && (not (Hashtbl.mem broken_ids vc_id))
            && on_path vc s entry
        in
        if not keep then orphans := (s, vc_id) :: !orphans)
      (Network.table_bindings t.net s)
  done;
  (!orphans, !broken)

let audit t = fst (orphan_entries t) |> List.length

let gc t =
  let orphans, broken = orphan_entries t in
  List.iter
    (fun (s, vc_id) -> Network.remove_entry t.net ~switch:s ~vc_id)
    orphans;
  (* Circuits whose installed path died need re-establishment: mark
     them dark so [dark]/[readmit] pick them up. *)
  List.iter (fun vc -> vc.Network.paged_out <- true) broken;
  let reclaimed = List.length orphans in
  t.gc_reclaimed <- t.gc_reclaimed + reclaimed;
  t.gc_runs <- t.gc_runs + 1;
  if obs_on t then begin
    Obs.Metrics.Counter.add t.c_gc_reclaimed reclaimed;
    Obs.Sink.instant t.obs ~name:"phase.gc" ~cat:"lifecycle"
      ~ts:(Netsim.Engine.now t.engine) ~tid:0 ~v:reclaimed
  end;
  reclaimed

let dark t =
  let acc = ref [] in
  Network.iter_vcs t.net (fun vc ->
      if vc.Network.paged_out && not (Hashtbl.mem t.claimed vc.Network.vc_id)
      then acc := vc :: !acc);
  List.sort (fun a b -> compare a.Network.vc_id b.Network.vc_id) !acc

(* Drop the legal-path cache. The cache is pure memoization — route
   answers are a function of the graph alone — but cache *warmth*
   shows through the timed layer (route_cost vs route_cost_cached), so
   checkpoint/restore equality needs both the writing run and the
   resumed run to stand at the same (cold) cache state at every
   checkpoint boundary. The soak harness calls this at each boundary;
   [save] correspondingly never serializes cache contents. *)
let flush_cache t =
  Hashtbl.reset t.route_cache;
  Hashtbl.reset t.orient_cache;
  t.cache_version <- min_int

(* Snapshots. Legal only with no setups in flight (a pending setup is
   a web of engine closures). The cache is flushed, not serialized —
   see [flush_cache]; hit/miss totals are carried as plain stats. *)

let snapshot_section = "an2-lifecycle"
let snapshot_version = 1

module Snap = Netsim.Snapshot

let quiescent t = t.in_flight = 0

let save t =
  if not (quiescent t) then
    invalid_arg
      (Printf.sprintf "Lifecycle.save: %d setups in flight" t.in_flight);
  Snap.make ~name:snapshot_section ~version:snapshot_version (fun w ->
      Netsim.Rng.write w t.rng;
      Snap.W.int_array w t.busy_until;
      Snap.W.int_array w t.queue_len;
      Snap.W.int w t.worst_backlog;
      Snap.W.int w t.setups;
      Snap.W.int w t.established;
      Snap.W.int w t.failed;
      Snap.W.int w t.attempts;
      Snap.W.int w t.crankbacks;
      Snap.W.int w t.timeouts;
      Snap.W.int w t.retries;
      Snap.W.int w t.gc_reclaimed;
      Snap.W.int w t.gc_runs;
      Snap.W.int w t.route_cache_hits;
      Snap.W.int w t.route_cache_misses)

let restore ?obs ~engine net params section =
  Snap.read section ~name:snapshot_section ~version:snapshot_version (fun r ->
      let rng = Netsim.Rng.read r in
      let busy_until = Snap.R.int_array r in
      let queue_len = Snap.R.int_array r in
      let n = Topo.Graph.switch_count (Network.graph net) in
      if Array.length busy_until <> n || Array.length queue_len <> n then
        Snap.R.corrupt "Lifecycle: processor array length mismatch";
      let t = create ?obs ~engine net params in
      Netsim.Rng.blit ~src:rng ~dst:t.rng;
      Array.blit busy_until 0 t.busy_until 0 n;
      Array.blit queue_len 0 t.queue_len 0 n;
      t.worst_backlog <- Snap.R.int r;
      t.setups <- Snap.R.int r;
      t.established <- Snap.R.int r;
      t.failed <- Snap.R.int r;
      t.attempts <- Snap.R.int r;
      t.crankbacks <- Snap.R.int r;
      t.timeouts <- Snap.R.int r;
      t.retries <- Snap.R.int r;
      t.gc_reclaimed <- Snap.R.int r;
      t.gc_runs <- Snap.R.int r;
      t.route_cache_hits <- Snap.R.int r;
      t.route_cache_misses <- Snap.R.int r;
      t)
