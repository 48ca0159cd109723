type params = {
  proc_delay : Netsim.Time.t;
  setup_timeout : Netsim.Time.t;
  max_attempts : int;
  pace : Netsim.Time.t;
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
    pace = Netsim.Time.us 500;
    seed = 0;
    route_cost = 0;
    route_cost_cached = 0;
    path_cache = true;
  }

(* Retry backoff: the first retry waits 1 ms, each further one doubles
   the wait, up to 100 ms, scaled by a seeded factor in [0.8, 1.2] so
   colliding retries decorrelate. *)
let backoff_base = Netsim.Time.ms 1
let backoff_max = Netsim.Time.ms 100
let jitter = 0.2

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

(* One setup, in its slot of the setup table. [epoch] stamps the
   current attempt: events belonging to an abandoned attempt (timeout
   fired, source moved on) carry an older stamp and evaporate. The
   attempt's timeout is one of them, and so is every timeout once the
   setup is [resolved]. [refs] counts the queued events and processor
   cells that name the slot: a stale cell still reads the path its
   setup holds when it arrives, so a slot is reused only once it is
   resolved and [refs] is back to 0. Records are reused with their
   slot; a free one is unresolved and holds [Network.no_vc]. *)
type pending = {
  slot : int;
  mutable vc : Network.vc;
  mutable on_done : (Network.vc, string) result -> unit;
  mutable submitted_at : Netsim.Time.t;
  mutable attempt_started_at : Netsim.Time.t;
  mutable attempt : int;
  mutable epoch : int;
  mutable path_switches : int array;
  mutable path_links : int array;
  mutable resolved : bool;
  mutable refs : int;
}

let no_done (_ : (Network.vc, string) result) = ()

type t = {
  engine : Netsim.Engine.t;
  net : Network.t;
  params : params;
  rng : Netsim.Rng.t;
  kind : Netsim.Engine.kind;  (* every crawl event and processor job *)
  (* Per-switch signaling processor: cells are handled one at a time.
     [cells.(s)] is its queue, a ring of the queued cells' events, the
     oldest at [cell_head.(s)] and [queue_len.(s)] of them, the one in
     service included. *)
  busy_until : Netsim.Time.t array;
  queue_len : int array;
  cells : int array array;
  cell_head : int array;
  mutable table : pending array;  (* setups by slot *)
  mutable free_slots : int array;  (* a stack of free slots *)
  mutable n_free : int;
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
  (* Route cache, keyed by the graph-version counter: any mutation
     (structural or fail/restore) bumps the version, which empties the
     table on the next lookup. Pure memoization —
     [route_for] is a function of the graph state alone, so cached
     runs replay byte-identically to uncached ones. *)
  mutable cache_version : int;
  route_cache : (int, (route, string) result) Hashtbl.t;
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

(* The crawl's events. Each is one int: the op in the low [op_bits],
   then the setup's slot, the epoch of the attempt that sent it and
   the hop. A [Job] event is a processor finishing its oldest cell
   and carries only the switch; the cell is one of the [*_done] ops,
   with the slot, epoch and hop of the event that queued it. *)
type op =
  | Job  (* a switch's processor finishes its oldest cell *)
  | Timeout  (* the attempt's setup timeout *)
  | Retry  (* the backoff is over: next attempt *)
  | Route_done  (* the ingress has computed the route *)
  | Setup  (* the setup cell reaches the switch at [hop] *)
  | Setup_done
  | Ack  (* the ack reaches the switch at [hop] *)
  | Ack_done
  | Ack_home  (* the ack reaches the source *)
  | Release  (* the release cell reaches the switch at [hop - 1] *)
  | Release_done
  | Release_home  (* the release cell reaches the source *)

let ops =
  [| Job; Timeout; Retry; Route_done; Setup; Setup_done; Ack; Ack_done;
     Ack_home; Release; Release_done; Release_home |]

let op_code = function
  | Job -> 0
  | Timeout -> 1
  | Retry -> 2
  | Route_done -> 3
  | Setup -> 4
  | Setup_done -> 5
  | Ack -> 6
  | Ack_done -> 7
  | Ack_home -> 8
  | Release -> 9
  | Release_done -> 10
  | Release_home -> 11

let op_bits = 4
let slot_bits = 24
let epoch_bits = 16
let op_mask = (1 lsl op_bits) - 1
let slot_mask = (1 lsl slot_bits) - 1
let epoch_mask = (1 lsl epoch_bits) - 1
let epoch_shift = op_bits + slot_bits
let hop_shift = epoch_shift + epoch_bits

(* A setup bumps its epoch at most twice per attempt (the attempt's
   start, then its timeout or crankback), so its stamps stay below
   [2 * max_attempts + 1] and fit [epoch_bits] whole. A hop indexes a
   route, a simple path, so it stays below the switch count; the
   table checks its slots as it grows. *)
let check_fits (params : params) n =
  if (2 * params.max_attempts) + 1 > epoch_mask then
    invalid_arg "Lifecycle.create: max_attempts out of range";
  if n > 1 lsl (Sys.int_size - 1 - hop_shift) then
    invalid_arg "Lifecycle.create: too many switches"

let[@inline] event p op hop =
  op_code op lor (p.slot lsl op_bits) lor (p.epoch lsl epoch_shift)
  lor (hop lsl hop_shift)

(* The same event with another op: a cell keeps its epoch. *)
let[@inline] with_op ev op = (ev land lnot op_mask) lor op_code op

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
  let search = Topo.Paths.route_links (Network.graph t.net) in
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

(* ---- The setup table ---- *)

(* What a slot holds until a setup first takes it: the table's
   unused capacity costs a word per slot, not a record. *)
let vacant =
  {
    slot = -1;
    vc = Network.no_vc;
    on_done = no_done;
    submitted_at = 0;
    attempt_started_at = 0;
    attempt = 0;
    epoch = 0;
    path_switches = [||];
    path_links = [||];
    resolved = false;
    refs = 0;
  }

let grow_table t =
  let cap = Array.length t.table in
  let ncap = if cap = 0 then 16 else 2 * cap in
  if ncap > 1 lsl slot_bits then failwith "Lifecycle: setup table full";
  let table = Array.make ncap vacant in
  Array.blit t.table 0 table 0 cap;
  t.table <- table;
  let free = Array.make ncap 0 in
  (* Lowest new slot on top. *)
  for slot = ncap - 1 downto cap do
    free.(t.n_free) <- slot;
    t.n_free <- t.n_free + 1
  done;
  t.free_slots <- free

let take_pending t vc ~on_done =
  if t.n_free = 0 then grow_table t;
  t.n_free <- t.n_free - 1;
  let slot = t.free_slots.(t.n_free) in
  let p =
    if t.table.(slot) != vacant then t.table.(slot)
    else begin
      let p = { vacant with slot } in
      t.table.(slot) <- p;
      p
    end
  in
  let now = Netsim.Engine.now t.engine in
  p.vc <- vc;
  p.on_done <- on_done;
  p.submitted_at <- now;
  p.attempt_started_at <- now;
  p.attempt <- 0;
  p.epoch <- 0;
  p.path_switches <- [||];
  p.path_links <- [||];
  p

(* Free the slot of a resolved setup that no event names any more.
   Every entry point into the crawl ends with it. *)
let settle t p =
  if p.resolved && p.refs = 0 then begin
    p.resolved <- false;
    p.vc <- Network.no_vc;
    p.on_done <- no_done;
    t.free_slots.(t.n_free) <- p.slot;
    t.n_free <- t.n_free + 1
  end

(* Post one of [p]'s events, stamped with its current epoch. *)
let post t p ~delay op hop =
  p.refs <- p.refs + 1;
  Netsim.Engine.post_event t.engine ~delay t.kind (event p op hop)

(* ---- Signaling processors ---- *)

let push_cell t s cell =
  let n = t.queue_len.(s) in
  let ring = t.cells.(s) in
  let cap = Array.length ring in
  if n = cap then begin
    let grown = Array.make (max 8 (2 * cap)) 0 in
    let h = t.cell_head.(s) in
    for k = 0 to n - 1 do
      grown.(k) <- ring.((h + k) land (cap - 1))
    done;
    t.cells.(s) <- grown;
    t.cell_head.(s) <- 0
  end;
  let ring = t.cells.(s) in
  ring.((t.cell_head.(s) + n) land (Array.length ring - 1)) <- cell;
  t.queue_len.(s) <- n + 1

(* The processor of [s] is done with its oldest cell: take it off the
   queue. *)
let leave t s =
  let ring = t.cells.(s) and h = t.cell_head.(s) in
  t.cell_head.(s) <- (h + 1) land (Array.length ring - 1);
  t.queue_len.(s) <- t.queue_len.(s) - 1;
  ring.(h)

(* Occupy switch [s]'s signaling processor for [cost] with [cell], one
   of [p]'s events. The processor finishes its cells in the order they
   were queued (each starts when the previous one ends, and a tie
   keeps post order), so the [Job] event posted here dispatches the
   oldest cell of the queue, which [leave]s it. *)
let process_for t s ~cost p cell =
  p.refs <- p.refs + 1;
  push_cell t s cell;
  if obs_on t then
    Obs.Histogram.add t.h_backlog (float_of_int t.queue_len.(s));
  if t.queue_len.(s) > t.worst_backlog then begin
    t.worst_backlog <- t.queue_len.(s);
    if obs_on t then Obs.Metrics.Gauge.set t.g_backlog (float_of_int t.worst_backlog)
  end;
  let start = max (Netsim.Engine.now t.engine) t.busy_until.(s) in
  let finish = start + cost in
  t.busy_until.(s) <- finish;
  Netsim.Engine.post_event_at t.engine ~at:finish t.kind
    ((s lsl op_bits) lor op_code Job)

(* One signaling cell's worth of processing. *)
let process_at t s p cell = process_for t s ~cost:t.params.proc_delay p cell

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
      post t p ~delay:t.params.setup_timeout Timeout 0;
      (* Route computation is charged to the ingress switch's
         signaling processor — the line card resolving the source
         route. A zero cost (the default) launches inline, leaving
         the legacy event sequence untouched. *)
      let cost =
        if cached then t.params.route_cost_cached else t.params.route_cost
      in
      if cost = 0 then launch t p
      else process_for t p.path_switches.(0) ~cost p (event p Route_done 0)
  end

(* The setup cell leaves the source host over its attachment. Over a
   dead attachment it goes nowhere; the timeout recovers. *)
and launch t p =
  let g = Network.graph t.net in
  if Topo.Graph.link_working g p.path_links.(0) then
    post t p ~delay:(latency g p.path_links.(0)) Setup 0

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
      1.0 +. (jitter *. ((2.0 *. Netsim.Rng.float t.rng 1.0) -. 1.0))
    in
    let delay = max 1 (int_of_float (float_of_int raw *. factor)) in
    (* The backoff itself as a span: gaps between crawl spans on a
       circuit's track are attributable to waiting, not signaling. *)
    Obs.Sink.span t.obs ~name:"phase.retry" ~cat:"lifecycle" ~ts:retry_at
      ~dur:delay ~tid:p.vc.Network.vc_id ~v:p.attempt;
    post t p ~delay Retry 0
  end

let on_timeout t p =
  t.timeouts <- t.timeouts + 1;
  if obs_on t then Obs.Metrics.Counter.incr t.c_timeouts;
  (* Abandon the crawl. Entries it installed stay behind as orphans
     until the next gc — the paper's switches forget circuits only
     when told to. *)
  p.epoch <- p.epoch + 1;
  p.vc.Network.paged_out <- true;
  retry t p

(* The release cell leaves path hop [j] backwards toward the source,
   uninstalling at each switch it reaches; at the source, the setup
   backs off and retries on a route recomputed around the failure. A
   dead link on the way back swallows it: the remaining prefix stays
   as orphans and the timeout recovers. *)
let release_from t p j =
  let g = Network.graph t.net in
  let back = p.path_links.(j) in
  if not (Topo.Graph.link_working g back) then ()
  else if j = 0 then post t p ~delay:(latency g back) Release_home 0
  else post t p ~delay:(latency g back) Release j

(* Dead next link discovered at path hop [i]: undo the entry just
   installed there (same processing slot), then walk a release cell
   back over the installed prefix. *)
let crankback t p i =
  t.crankbacks <- t.crankbacks + 1;
  if obs_on t then begin
    Obs.Metrics.Counter.incr t.c_crankbacks;
    Obs.Sink.instant t.obs ~name:"phase.crankback" ~cat:"lifecycle"
      ~ts:(Netsim.Engine.now t.engine) ~tid:p.vc.Network.vc_id ~v:i
  end;
  Network.uninstall_entry t.net p.vc ~switch:p.path_switches.(i);
  release_from t p i

(* The setup cell has been processed at path hop [i]. *)
let setup_done t p i =
  let g = Network.graph t.net in
  let s = p.path_switches.(i) in
  if not (switch_alive g s) then ()
    (* Crashed switch swallows the cell; the timeout recovers. *)
  else begin
    let out = p.path_links.(i + 1) in
    Network.install_hop t.net p.vc ~switch:s ~in_link:p.path_links.(i)
      ~out_link:out;
    if not (Topo.Graph.link_working g out) then crankback t p i
    else if i + 1 < Array.length p.path_switches then
      post t p ~delay:(latency g out) Setup (i + 1)
    else
      (* Last switch: the cell reaches the destination host, which
         acknowledges immediately (§2: data may follow the setup
         cell; the ack closes the loop for the source). *)
      post t p ~delay:(2 * latency g out) Ack i
  end

(* The ack has been processed at path hop [i] on its way back. *)
let ack_done t p i =
  let g = Network.graph t.net in
  let back = p.path_links.(i) in
  if not (switch_alive g p.path_switches.(i)) || not (Topo.Graph.link_working g back)
  then ()
    (* Swallowed ack: the source times out and retries; the fully
       installed path becomes orphan entries for gc. *)
  else if i = 0 then post t p ~delay:(latency g back) Ack_home 0
  else post t p ~delay:(latency g back) Ack (i - 1)

(* The release cell has been processed at path hop [j - 1]. *)
let release_done t p j =
  let prev = p.path_switches.(j - 1) in
  if switch_alive (Network.graph t.net) prev then begin
    Network.uninstall_entry t.net p.vc ~switch:prev;
    release_from t p (j - 1)
  end

(* One crawl event of a setup. A cell that arrives at a switch queues
   on its processor whatever its epoch (a stale cell still costs the
   processor its time), and a retry starts the next attempt of an
   unresolved setup; everything else acts only for the current attempt
   of an unresolved setup. *)
let on_cell t ev =
  let p = t.table.((ev lsr op_bits) land slot_mask) in
  p.refs <- p.refs - 1;
  let hop = ev lsr hop_shift in
  let current =
    (not p.resolved) && p.epoch = (ev lsr epoch_shift) land epoch_mask
  in
  (match ops.(ev land op_mask) with
   | Timeout -> if current then on_timeout t p
   | Retry -> start_attempt t p
   | Route_done -> if current then launch t p
   | Setup -> process_at t p.path_switches.(hop) p (with_op ev Setup_done)
   | Setup_done -> if current then setup_done t p hop
   | Ack -> process_at t p.path_switches.(hop) p (with_op ev Ack_done)
   | Ack_done -> if current then ack_done t p hop
   | Ack_home -> if current then finish t p (Ok p.vc)
   | Release ->
     process_at t p.path_switches.(hop - 1) p (with_op ev Release_done)
   | Release_done -> if current then release_done t p hop
   | Release_home ->
     if current then begin
       p.epoch <- p.epoch + 1;
       retry t p
     end
   | Job -> assert false);
  settle t p

let on_event t ev =
  if ev land op_mask = op_code Job then on_cell t (leave t (ev lsr op_bits))
  else on_cell t ev

let create ?(obs = Obs.Sink.null) ~engine net params =
  let n = Topo.Graph.switch_count (Network.graph net) in
  check_fits params n;
  let dispatch = ref ignore in
  let t =
    {
      engine;
      net;
      params;
      rng = Netsim.Rng.create params.seed;
      kind = Netsim.Engine.handler engine (fun ev -> !dispatch ev);
      busy_until = Array.make n 0;
      queue_len = Array.make n 0;
      cells = Array.make n [||];
      cell_head = Array.make n 0;
      table = [||];
      free_slots = [||];
      n_free = 0;
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
  in
  dispatch := on_event t;
  t

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
  let p = take_pending t vc ~on_done in
  start_attempt t p;
  settle t p

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

(* Drop the route cache. The cache is pure memoization — route
   answers are a function of the graph alone — but cache *warmth*
   shows through the timed layer (route_cost vs route_cost_cached), so
   checkpoint/restore equality needs both the writing run and the
   resumed run to stand at the same (cold) cache state at every
   checkpoint boundary. The soak harness calls this at each boundary;
   [save] correspondingly never serializes cache contents. *)
let flush_cache t =
  Hashtbl.reset t.route_cache;
  t.cache_version <- min_int

(* Snapshots. Legal only with no setups in flight and no cell queued
   at a processor: those are engine events and table entries that no
   snapshot carries. The queue lengths are still written (all zero),
   so the format is unchanged. The cache is flushed, not serialized —
   see [flush_cache]; hit/miss totals are carried as plain stats. *)

let snapshot_section = "an2-lifecycle"
let snapshot_version = 1

module Snap = Netsim.Snapshot

let quiescent t = t.in_flight = 0 && Array.for_all (fun q -> q = 0) t.queue_len

let save t =
  if not (quiescent t) then
    invalid_arg
      (Printf.sprintf "Lifecycle.save: not quiescent (%d setups in flight)"
         t.in_flight);
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
      if Array.exists (fun q -> q <> 0) queue_len then
        Snap.R.corrupt "Lifecycle: a processor queue is not empty";
      let t = create ?obs ~engine net params in
      Netsim.Rng.blit ~src:rng ~dst:t.rng;
      Array.blit busy_until 0 t.busy_until 0 n;
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
