exception Underflow of { link : int; have : int; released : int }

type t = {
  net : Network.t;
  mutable res : int array;  (* link id -> cells per frame reserved *)
  shards : int;
  shard_range : int;  (* links per shard (by link-id range) *)
  obs : Obs.Sink.t;
  c_requests : Obs.Metrics.Counter.t;
  c_granted : Obs.Metrics.Counter.t;
  c_denied_no_route : Obs.Metrics.Counter.t;
  c_denied_no_capacity : Obs.Metrics.Counter.t;
  c_releases : Obs.Metrics.Counter.t;
  c_reroutes : Obs.Metrics.Counter.t;
  c_underflows : Obs.Metrics.Counter.t;
}

type denial =
  | No_route
  | No_capacity

let pp_denial fmt = function
  | No_route -> Format.pp_print_string fmt "no route"
  | No_capacity -> Format.pp_print_string fmt "insufficient capacity"

let create ?(obs = Obs.Sink.null) ?(shards = 1) net =
  if shards < 1 then invalid_arg "Bandwidth_central.create: shards must be >= 1";
  let lc = Topo.Graph.link_count (Network.graph net) in
  {
    net;
    res = Array.make (max 64 lc) 0;
    shards;
    shard_range = max 1 ((lc + shards - 1) / shards);
    obs;
    c_requests = Obs.Sink.counter obs "bwc.requests";
    c_granted = Obs.Sink.counter obs "bwc.granted";
    c_denied_no_route = Obs.Sink.counter obs "bwc.denied_no_route";
    c_denied_no_capacity = Obs.Sink.counter obs "bwc.denied_no_capacity";
    c_releases = Obs.Sink.counter obs "bwc.releases";
    c_reroutes = Obs.Sink.counter obs "bwc.reroutes";
    c_underflows = Obs.Sink.counter obs "bwc.underflows";
  }

let obs_on t = t.obs.Obs.Sink.enabled

let count_denial t = function
  | No_route -> Obs.Metrics.Counter.incr t.c_denied_no_route
  | No_capacity -> Obs.Metrics.Counter.incr t.c_denied_no_capacity

let shards t = t.shards

let shard_of t lid = min (t.shards - 1) (lid / t.shard_range)

let reserved t lid = if lid < Array.length t.res then t.res.(lid) else 0

let ensure_res t lid =
  let n = Array.length t.res in
  if lid >= n then begin
    let grown = Array.make (max (lid + 1) (2 * n)) 0 in
    Array.blit t.res 0 grown 0 n;
    t.res <- grown
  end

let add_reserved t lid cells =
  ensure_res t lid;
  t.res.(lid) <- t.res.(lid) + cells

(* Double releases used to be clamped with [max 0], silently absorbing
   accounting corruption; now they are loud. *)
let sub_reserved t lid cells =
  let have = reserved t lid in
  if have < cells then begin
    if obs_on t then Obs.Metrics.Counter.incr t.c_underflows;
    raise (Underflow { link = lid; have; released = cells })
  end;
  t.res.(lid) <- have - cells

let reservations t =
  let acc = ref [] in
  for lid = Array.length t.res - 1 downto 0 do
    if t.res.(lid) > 0 then acc := (lid, t.res.(lid)) :: !acc
  done;
  !acc

let headroom t lid = Network.frame_length t.net - reserved t lid

(* Shortest route where every link (host links included) has [cells] of
   headroom: the shared BFS kernel with a capacity filter, answering
   with the links it approved, which are the links reserved. *)
let capacity_route t ~src_host ~dst_host ~cells =
  let g = Network.graph t.net in
  match
    (Network.host_attachment t.net src_host, Network.host_attachment t.net dst_host)
  with
  | Error _, _ | _, Error _ -> Error No_route
  | Ok (a, src_link), Ok (b, dst_link) ->
    if headroom t src_link < cells || headroom t dst_link < cells then
      Error No_capacity
    else
      match
        Topo.Paths.route_links
          ~usable:(fun lid -> headroom t lid >= cells)
          g ~src:a ~dst:b ~tail:[ dst_link ]
      with
      | Some (switches, links) -> Ok (switches, src_link :: links)
      | None ->
        (* Distinguish "physically disconnected" from "saturated". *)
        if Topo.Paths.route g ~src:a ~dst:b = None then Error No_route
        else Error No_capacity

let place_cells t cells s in_link out_link =
  let input = Network.port_at t.net s in_link
  and output = Network.port_at t.net s out_link in
  match
    Frame.Schedule.add_reservation (Network.switch_schedule t.net s) ~input
      ~output ~cells
  with
  | Ok _ -> ()
  | Error e ->
    (* Admission guarantees per-link headroom, and headroom at both
       ports is exactly the Slepian-Duguid admissibility condition, so
       insertion cannot fail. *)
    failwith ("Bandwidth_central: schedule insertion failed: " ^ e)

let install_schedules t vc cells = Network.iter_hops place_cells t cells vc

let request t ~src_host ~dst_host ~cells =
  if cells < 1 || cells > Network.frame_length t.net then
    invalid_arg "Bandwidth_central.request: bad cell count";
  if obs_on t then Obs.Metrics.Counter.incr t.c_requests;
  let outcome =
    match capacity_route t ~src_host ~dst_host ~cells with
    | Error d -> Error d
    | Ok (switches, links) ->
      let vc =
        Network.register_guaranteed t.net ~src_host ~dst_host ~cells ~switches
          ~links
      in
      List.iter (fun lid -> add_reserved t lid cells) links;
      install_schedules t vc cells;
      Ok vc
  in
  if obs_on t then begin
    match outcome with
    | Ok _ -> Obs.Metrics.Counter.incr t.c_granted
    | Error d -> count_denial t d
  end;
  outcome

let release t vc =
  match vc.Network.cls with
  | Network.Best_effort -> invalid_arg "Bandwidth_central.release: not guaranteed"
  | Network.Guaranteed cells ->
    if obs_on t then Obs.Metrics.Counter.incr t.c_releases;
    List.iter (fun lid -> sub_reserved t lid cells) vc.Network.links;
    Network.teardown t.net vc

let reroute_after_failure t vc =
  match vc.Network.cls with
  | Network.Best_effort -> invalid_arg "Bandwidth_central.reroute: not guaranteed"
  | Network.Guaranteed cells ->
    if obs_on t then Obs.Metrics.Counter.incr t.c_reroutes;
    (* Free the dead path's reservations before the search, so the new
       path may reuse its links, but keep the circuit's identity:
       re-admission must rewire this record, or line cards holding it
       (and the hosts) would keep talking into the old path. Its
       schedule cells and table entries go exactly once: on success
       just before the rewire, otherwise with the teardown. Removing
       them twice would take cells of other circuits on the same port
       pairs. *)
    List.iter (fun lid -> sub_reserved t lid cells) vc.Network.links;
    let dissolve d =
      if obs_on t then count_denial t d;
      Network.teardown t.net vc;
      Error d
    in
    (match
       capacity_route t ~src_host:vc.Network.src_host
         ~dst_host:vc.Network.dst_host ~cells
     with
     | Error d -> dissolve d
     | Ok (switches, links) ->
       Network.remove_schedule_entries t.net vc cells;
       Network.uninstall t.net vc;
       vc.Network.switches <- switches;
       vc.Network.links <- links;
       Network.install t.net vc;
       List.iter (fun lid -> add_reserved t lid cells) links;
       install_schedules t vc cells;
       Ok ())

(* Fault injection for the soak harness: silently inflate a link's
   reservation count without touching any circuit. Invisible to every
   code path except the reserved-vs-live-circuits audit — exactly the
   kind of slow accounting corruption endurance runs exist to catch. *)
let inject_leak t ~link ~cells =
  if cells < 1 then invalid_arg "Bandwidth_central.inject_leak: bad cells";
  add_reserved t link cells

(* Snapshots. The core's persistent state is the shard layout and the
   reservation counters; the obs counters are instrumentation and are
   not saved. Canonical: the res
   array is written as the exact link-count prefix. *)

let snapshot_section = "an2-bwc"
let snapshot_version = 1

module Snap = Netsim.Snapshot

let write_core w t =
  let lc = Topo.Graph.link_count (Network.graph t.net) in
  Snap.W.int w t.shards;
  Snap.W.int_array w (Array.init lc (fun lid -> reserved t lid))

let read_core ?obs net r =
  let shards = Snap.R.int r in
  let res = Snap.R.int_array r in
  if shards < 1 then Snap.R.corrupt "Bandwidth_central: bad shard count";
  if Array.length res <> Topo.Graph.link_count (Network.graph net) then
    Snap.R.corrupt "Bandwidth_central: reservation count does not match graph";
  let frame = Network.frame_length net in
  Array.iter
    (fun c ->
      if c < 0 || c > frame then
        Snap.R.corrupt "Bandwidth_central: reservation out of range")
    res;
  let t = create ?obs ~shards net in
  Array.iteri (fun lid c -> if c > 0 then add_reserved t lid c) res;
  t

let save t =
  Snap.make ~name:snapshot_section ~version:snapshot_version (fun w ->
      write_core w t)

let restore ?obs net section =
  Snap.read section ~name:snapshot_section ~version:snapshot_version
    (read_core ?obs net)

(* Aliases usable inside [Service], where the names are shadowed. *)
let core_create = create
let core_release = release
let core_reroute_after_failure = reroute_after_failure
let core_inject_leak = inject_leak

module Service = struct
  type params = { flush_every : Netsim.Time.t }

  let default_params = { flush_every = Netsim.Time.us 500 }

  (* The coordinator and shard work of one admission (E35's cost
     model): the capacity route, commit validation and reservation,
     escrow per foreign shard, a routing-table write (per entry inline,
     per flush when batched) plus a unit per entry inside a flush, and
     a release. *)
  let route_cost = Netsim.Time.us 80
  let admit_cost = Netsim.Time.us 40
  let escrow_cost = Netsim.Time.us 25
  let write_cost = Netsim.Time.us 20
  let write_unit = Netsim.Time.us 2
  let release_cost = Netsim.Time.us 30

  type stats = {
    submitted : int;
    granted : int;
    denied_no_route : int;
    denied_no_capacity : int;
    released : int;
    cross_shard : int;
    escrow_conflicts : int;
    batch_flushes : int;
    batched_writes : int;
    worst_backlog : int;
  }

  (* One unit of queued work in its slot of the work table: an
     admission in flight, a release waiting for the coordinator, or a
     batch of table writes. Each shard owns the route's links that
     [shard_of] assigns it. Foreign shards are escrowed in ascending
     order, a total escrow order, so concurrent cross-shard admissions
     cannot deadlock and replay deterministically; the order also
     makes the escrowed set exactly the foreign shards below
     [frontier], the shard being escrowed (all shards once the
     coordinator commits). Records are reused with their slot. *)
  type work = {
    slot : int;
    mutable src_host : int;
    mutable dst_host : int;
    mutable cells : int;
    mutable co : int;  (* coordinator shard; the flushing shard *)
    mutable on_done : (Network.vc, denial) result -> unit;
    mutable switches : int list;
    mutable links : int list;
    mutable frontier : int;
    mutable vc : Network.vc;  (* to release *)
    mutable batch : Network.vc list;  (* to write *)
  }

  let no_done (_ : (Network.vc, denial) result) = ()

  type nonrec t = {
    core : t;
    engine : Netsim.Engine.t;
    params : params;
    kind : Netsim.Engine.kind;
    (* Per-shard serialized admission processor, mirroring the
       per-switch signaling processors of {!Lifecycle}. *)
    busy_until : Netsim.Time.t array;
    queue_len : int array;
    pending_writes : Network.vc list array;  (* per coordinator shard *)
    flush_armed : bool array;
    mutable table : work array;
    mutable free_slots : int array;  (* a stack of free slots *)
    mutable n_free : int;
    mutable worst_backlog : int;
    mutable in_flight : int;
    mutable submitted : int;
    mutable granted : int;
    mutable denied_no_route : int;
    mutable denied_no_capacity : int;
    mutable released : int;
    mutable cross_shard : int;
    mutable escrow_conflicts : int;
    mutable batch_flushes : int;
    mutable batched_writes : int;
    c_cross_shard : Obs.Metrics.Counter.t;
    c_escrow_conflicts : Obs.Metrics.Counter.t;
    c_batch_flushes : Obs.Metrics.Counter.t;
  }

  (* The service's events: an op in the low [op_bits], then a work
     slot, or a shard for [Flush]. *)
  type op =
    | Route  (* the coordinator has computed the route *)
    | Hold  (* a foreign shard escrows *)
    | Commit  (* the coordinator commits *)
    | Release  (* the coordinator releases *)
    | Flush  (* a shard's flush timer *)
    | Write  (* a shard writes a batch of table entries *)

  let ops = [| Route; Hold; Commit; Release; Flush; Write |]

  let op_code = function
    | Route -> 0
    | Hold -> 1
    | Commit -> 2
    | Release -> 3
    | Flush -> 4
    | Write -> 5

  let op_bits = 3

  let in_flight t = t.in_flight
  let reserved t lid = reserved t.core lid
  let reservations t = reservations t.core

  let stats t =
    {
      submitted = t.submitted;
      granted = t.granted;
      denied_no_route = t.denied_no_route;
      denied_no_capacity = t.denied_no_capacity;
      released = t.released;
      cross_shard = t.cross_shard;
      escrow_conflicts = t.escrow_conflicts;
      batch_flushes = t.batch_flushes;
      batched_writes = t.batched_writes;
      worst_backlog = t.worst_backlog;
    }

  let coordinator t src_host = src_host mod t.core.shards

  (* What a slot holds until work first takes it: the table's unused
     capacity costs a word per slot, not a record. *)
  let vacant =
    {
      slot = -1;
      src_host = 0;
      dst_host = 0;
      cells = 0;
      co = 0;
      on_done = no_done;
      switches = [];
      links = [];
      frontier = 0;
      vc = Network.no_vc;
      batch = [];
    }

  let grow_table t =
    let cap = Array.length t.table in
    let ncap = if cap = 0 then 16 else 2 * cap in
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

  (* A free slot's record, with [co] set and the rest as the last
     user left it: each kind of work sets what it reads. *)
  let take t ~co =
    if t.n_free = 0 then grow_table t;
    t.n_free <- t.n_free - 1;
    let slot = t.free_slots.(t.n_free) in
    let w =
      if t.table.(slot) != vacant then t.table.(slot)
      else begin
        let w = { vacant with slot } in
        t.table.(slot) <- w;
        w
      end
    in
    w.co <- co;
    w

  (* Free a slot once its work is done, dropping what it held. *)
  let free t w =
    w.on_done <- no_done;
    w.switches <- [];
    w.links <- [];
    w.vc <- Network.no_vc;
    w.batch <- [];
    t.free_slots.(t.n_free) <- w.slot;
    t.n_free <- t.n_free + 1

  (* Occupy shard [sh]'s admission processor for [cost]; [op] runs on
     [w] when the processor gets to it. The queue includes the work in
     service, so each job starts with [leave]. *)
  let occupy t sh ~cost w op =
    t.queue_len.(sh) <- t.queue_len.(sh) + 1;
    if t.queue_len.(sh) > t.worst_backlog then t.worst_backlog <- t.queue_len.(sh);
    let start = max (Netsim.Engine.now t.engine) t.busy_until.(sh) in
    let finish = start + cost in
    t.busy_until.(sh) <- finish;
    Netsim.Engine.post_event_at t.engine ~at:finish t.kind
      ((w.slot lsl op_bits) lor op_code op)

  let leave t sh = t.queue_len.(sh) <- t.queue_len.(sh) - 1

  let batched t = t.params.flush_every > 0

  (* One deferred routing-table flush per coordinator shard: entries of
     circuits admitted since the last flush install in one batch, a
     single [write_cost] plus [write_unit] per entry instead of a full
     [write_cost] per entry. Circuits released (or dissolved) before
     the flush are skipped — their identity is gone. *)
  let arm_flush t sh =
    if not t.flush_armed.(sh) then begin
      t.flush_armed.(sh) <- true;
      Netsim.Engine.post_event t.engine ~delay:t.params.flush_every t.kind
        ((sh lsl op_bits) lor op_code Flush)
    end

  let flush t sh =
    t.flush_armed.(sh) <- false;
    let vcs = List.rev t.pending_writes.(sh) in
    t.pending_writes.(sh) <- [];
    t.batch_flushes <- t.batch_flushes + 1;
    if obs_on t.core then Obs.Metrics.Counter.incr t.c_batch_flushes;
    let entries =
      List.fold_left (fun acc vc -> acc + List.length vc.Network.switches) 0 vcs
    in
    let w = take t ~co:sh in
    w.batch <- vcs;
    occupy t sh ~cost:(write_cost + (entries * write_unit)) w Write

  let write t w =
    List.iter
      (fun vc ->
        match Network.find_vc t.core.net vc.Network.vc_id with
        | Some vc' when vc' == vc ->
          Network.install t.core.net vc;
          t.batched_writes <- t.batched_writes + List.length vc.Network.switches
        | _ -> ())
      w.batch;
    free t w

  let rec has_link core sh = function
    | [] -> false
    | lid :: rest -> shard_of core lid = sh || has_link core sh rest

  let rec short core sh cells = function
    | [] -> false
    | lid :: rest ->
      (shard_of core lid = sh && headroom core lid < cells)
      || short core sh cells rest

  let rec reserve core sh cells = function
    | [] -> ()
    | lid :: rest ->
      if shard_of core lid = sh then add_reserved core lid cells;
      reserve core sh cells rest

  (* Compensation: return the cells of every escrowed shard. *)
  let rec refund core a = function
    | [] -> ()
    | lid :: rest ->
      let sh = shard_of core lid in
      if sh <> a.co && sh < a.frontier then sub_reserved core lid a.cells;
      refund core a rest

  (* The first foreign shard at or above [sh] that owns a route link;
     [shards] when none is left. *)
  let rec next_foreign t a sh =
    let core = t.core in
    if sh >= core.shards then core.shards
    else if sh <> a.co && has_link core sh a.links then sh
    else next_foreign t a (sh + 1)

  (* End an admission: its slot is free before [on_done] runs, which
     may submit the next one. *)
  let resolve t a result =
    let on_done = a.on_done in
    t.in_flight <- t.in_flight - 1;
    free t a;
    on_done result

  let deny t a d =
    (match d with
     | No_route -> t.denied_no_route <- t.denied_no_route + 1
     | No_capacity -> t.denied_no_capacity <- t.denied_no_capacity + 1);
    if obs_on t.core then count_denial t.core d;
    resolve t a (Error d)

  let conflict t a =
    refund t.core a a.links;
    t.escrow_conflicts <- t.escrow_conflicts + 1;
    if obs_on t.core then Obs.Metrics.Counter.incr t.c_escrow_conflicts;
    deny t a No_capacity

  let escrow t a sh =
    a.frontier <- sh;
    if sh >= t.core.shards then begin
      let writes =
        if batched t then 0 else List.length a.switches * write_cost
      in
      occupy t a.co ~cost:(admit_cost + writes) a Commit
    end
    else occupy t sh ~cost:escrow_cost a Hold

  let route t a =
    match
      capacity_route t.core ~src_host:a.src_host ~dst_host:a.dst_host
        ~cells:a.cells
    with
    | Error d -> deny t a d
    | Ok (switches, links) ->
      a.switches <- switches;
      a.links <- links;
      let first = next_foreign t a 0 in
      if first < t.core.shards then begin
        t.cross_shard <- t.cross_shard + 1;
        if obs_on t.core then Obs.Metrics.Counter.incr t.c_cross_shard
      end;
      escrow t a first

  (* A foreign shard's processor reaches the admission: escrow its
     cells, or give up if another admission took the headroom. *)
  let hold t a =
    let sh = a.frontier in
    if short t.core sh a.cells a.links then conflict t a
    else begin
      reserve t.core sh a.cells a.links;
      escrow t a (next_foreign t a (sh + 1))
    end

  let commit t a =
    let co = a.co and cells = a.cells in
    (* Re-validate the coordinator's own links: another admission may
       have landed since the route was computed. *)
    if short t.core co cells a.links then conflict t a
    else begin
      reserve t.core co cells a.links;
      let vc =
        Network.register_guaranteed ~install:(not (batched t)) t.core.net
          ~src_host:a.src_host ~dst_host:a.dst_host ~cells
          ~switches:a.switches ~links:a.links
      in
      install_schedules t.core vc cells;
      if batched t then begin
        t.pending_writes.(co) <- vc :: t.pending_writes.(co);
        arm_flush t co
      end;
      t.granted <- t.granted + 1;
      if obs_on t.core then Obs.Metrics.Counter.incr t.core.c_granted;
      resolve t a (Ok vc)
    end

  (* The coordinator gets to a release. The circuit may have been
     dissolved (reroute denial, an earlier release) between the
     request and now; a stale release is dropped, not applied. *)
  let release_now t w =
    let vc = w.vc in
    free t w;
    match Network.find_vc t.core.net vc.Network.vc_id with
    | Some vc' when vc' == vc ->
      t.released <- t.released + 1;
      core_release t.core vc
    | _ -> ()

  let on_event t ev =
    let arg = ev lsr op_bits in
    match ops.(ev land ((1 lsl op_bits) - 1)) with
    | Flush -> flush t arg
    | Route ->
      let a = t.table.(arg) in
      leave t a.co;
      route t a
    | Hold ->
      let a = t.table.(arg) in
      leave t a.frontier;
      hold t a
    | Commit ->
      let a = t.table.(arg) in
      leave t a.co;
      commit t a
    | Release ->
      let w = t.table.(arg) in
      leave t w.co;
      release_now t w
    | Write ->
      let w = t.table.(arg) in
      leave t w.co;
      write t w

  let make ~core ~engine ~obs params =
    let n = core.shards in
    let dispatch = ref ignore in
    let t =
      {
        core;
        engine;
        params;
        kind = Netsim.Engine.handler engine (fun ev -> !dispatch ev);
        busy_until = Array.make n 0;
        queue_len = Array.make n 0;
        pending_writes = Array.make n [];
        flush_armed = Array.make n false;
        table = [||];
        free_slots = [||];
        n_free = 0;
        worst_backlog = 0;
        in_flight = 0;
        submitted = 0;
        granted = 0;
        denied_no_route = 0;
        denied_no_capacity = 0;
        released = 0;
        cross_shard = 0;
        escrow_conflicts = 0;
        batch_flushes = 0;
        batched_writes = 0;
        c_cross_shard = Obs.Sink.counter obs "bwc.cross_shard";
        c_escrow_conflicts = Obs.Sink.counter obs "bwc.escrow_conflicts";
        c_batch_flushes = Obs.Sink.counter obs "bwc.batch_flushes";
      }
    in
    dispatch := on_event t;
    t

  let create ?(obs = Obs.Sink.null) ~engine ?shards net params =
    make ~core:(core_create ~obs ?shards net) ~engine ~obs params

  let submit t ~src_host ~dst_host ~cells ~on_done =
    if cells < 1 || cells > Network.frame_length t.core.net then
      invalid_arg "Bandwidth_central.Service.submit: bad cell count";
    t.submitted <- t.submitted + 1;
    t.in_flight <- t.in_flight + 1;
    if obs_on t.core then Obs.Metrics.Counter.incr t.core.c_requests;
    let a = take t ~co:(coordinator t src_host) in
    a.src_host <- src_host;
    a.dst_host <- dst_host;
    a.cells <- cells;
    a.on_done <- on_done;
    occupy t a.co ~cost:route_cost a Route

  let release t vc =
    match vc.Network.cls with
    | Network.Best_effort ->
      invalid_arg "Bandwidth_central.Service.release: not guaranteed"
    | Network.Guaranteed _ ->
      let w = take t ~co:(coordinator t vc.Network.src_host) in
      w.vc <- vc;
      occupy t w.co ~cost:release_cost w Release

  (* Synchronous repair entry point for failure handlers (the soak
     harness): delegates straight to the core — repair is a
     reconfiguration-time action, not a queued admission. *)
  let reroute_after_failure t vc = core_reroute_after_failure t.core vc

  let headroom t lid = headroom t.core lid
  let inject_leak t ~link ~cells = core_inject_leak t.core ~link ~cells

  (* Snapshots. Legal only at quiescence: no in-flight admissions, no
     pending batched writes, no armed flush timers (all of those are
     queued events naming work the snapshot does not carry). What persists is the core's reservations plus
     the per-shard processor horizons and the cumulative stats. *)

  let snapshot_section = "an2-bwc-service"
  let snapshot_version = 1

  let quiescent t =
    t.in_flight = 0
    && Array.for_all (fun q -> q = 0) t.queue_len
    && Array.for_all (fun l -> l = []) t.pending_writes
    && Array.for_all not t.flush_armed

  let save t =
    if not (quiescent t) then
      invalid_arg
        (Printf.sprintf
           "Bandwidth_central.Service.save: not quiescent (%d in flight)"
           t.in_flight);
    Snap.make ~name:snapshot_section ~version:snapshot_version (fun w ->
        write_core w t.core;
        Snap.W.int_array w t.busy_until;
        Snap.W.int w t.worst_backlog;
        Snap.W.int w t.submitted;
        Snap.W.int w t.granted;
        Snap.W.int w t.denied_no_route;
        Snap.W.int w t.denied_no_capacity;
        Snap.W.int w t.released;
        Snap.W.int w t.cross_shard;
        Snap.W.int w t.escrow_conflicts;
        Snap.W.int w t.batch_flushes;
        Snap.W.int w t.batched_writes)

  let restore ?obs ~engine net params section =
    Snap.read section ~name:snapshot_section ~version:snapshot_version
      (fun r ->
        let core = read_core ?obs net r in
        let busy_until = Snap.R.int_array r in
        if Array.length busy_until <> core.shards then
          Snap.R.corrupt "Service: busy_until length does not match shards";
        (* Record fields evaluate in unspecified order, so the payload
           reads are sequenced by lets. *)
        let worst_backlog = Snap.R.int r in
        let submitted = Snap.R.int r in
        let granted = Snap.R.int r in
        let denied_no_route = Snap.R.int r in
        let denied_no_capacity = Snap.R.int r in
        let released = Snap.R.int r in
        let cross_shard = Snap.R.int r in
        let escrow_conflicts = Snap.R.int r in
        let batch_flushes = Snap.R.int r in
        let batched_writes = Snap.R.int r in
        let t =
          make ~core ~engine ~obs:(Option.value obs ~default:Obs.Sink.null)
            params
        in
        Array.blit busy_until 0 t.busy_until 0 core.shards;
        t.worst_backlog <- worst_backlog;
        t.submitted <- submitted;
        t.granted <- granted;
        t.denied_no_route <- denied_no_route;
        t.denied_no_capacity <- denied_no_capacity;
        t.released <- released;
        t.cross_shard <- cross_shard;
        t.escrow_conflicts <- escrow_conflicts;
        t.batch_flushes <- batch_flushes;
        t.batched_writes <- batched_writes;
        t)
end
