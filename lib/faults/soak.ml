(* Endurance soak: hours of simulated control-plane lifetime, composed
   of the TPS workload, link churn with skeptic-gated repair, and
   periodic partition episodes — checkpointed at every window boundary
   through Netsim.Snapshot, audited for conservation invariants, and
   (on a violation) bisected back to the offending window using the
   stored checkpoints instead of a from-scratch replay.

   The run is windowed: each window schedules its own arrivals and
   faults, then the engine drains completely, so a boundary is a true
   quiescent point — no closures in flight, which is what makes the
   byte-exact save/restore of every module legal. All cross-window
   state is either inside the snapshotted modules or in the explicit
   soak-control section below; restarting from any checkpoint is
   byte-identical to the uninterrupted run, and the tests and CI hold
   the harness to that. *)

module Lifecycle = An2.Lifecycle
module Service = An2.Bandwidth_central.Service
module Network = An2.Network
module Workload = An2.Workload
module Graph = Topo.Graph
module Snap = Netsim.Snapshot
module Tag = Reconfig.Tag
module Skeptic = Reconfig.Skeptic

type config = {
  every : Netsim.Time.t;  (** simulated time per checkpoint window *)
  total : Netsim.Time.t;  (** target simulated lifetime *)
  rate : float;  (** offered circuit setups per simulated second *)
  terminal_failure_pct : float;
      (** per-audit-period divergence verdict: terminal setup failures
          as % of the arrivals since the last audit *)
  churn_per_window : int;  (** link-failure injections per window *)
  partition_every : int;
      (** a separator cut-and-heal episode every Nth window; 0 =
          never *)
  audit_every : int;  (** run the invariant audit at every Nth
                          checkpoint (checkpoints happen every window) *)
  inject : (Netsim.Time.t * int * int) option;
      (** [(at, link, cells)]: seed a reservation leak
          ({!An2.Bandwidth_central.inject_leak}) at simulated time
          [at] — the planted invariant violation the audit must catch
          and the bisection must localize *)
  seed : int;
}

let default_config =
  {
    every = Netsim.Time.s 5;
    total = Netsim.Time.s 60;
    rate = 200.0;
    terminal_failure_pct = 10.0;
    churn_per_window = 2;
    partition_every = 8;
    audit_every = 4;
    inject = None;
    seed = 1;
  }

(* Leading fraction of each window carrying arrivals; the rest is drain
   headroom so boundaries stay cheap. *)
let load_fraction = 0.6

(* Every 5th guaranteed grant is held across the boundary and released
   at the next window's start: checkpoints then carry live
   reservations, so the conservation audit has something to conserve. *)
let hold_every = 5

(* Mean of the exponential link outage. *)
let outage_mean = Netsim.Time.ms 200

(* Cut-to-heal time of a partition episode. *)
let partition_span = Netsim.Time.ms 400

(* Dark circuits re-admitted per repair. *)
let readmit_cap = 64

(* The control plane every soak runs: the TPS bench's improved one. *)
let tps = Tps.improved_config

(* Per-link recovery skepticism of the churn repairs. *)
let skeptic =
  { Skeptic.base_wait = Netsim.Time.ms 5; max_level = 5; decay = Netsim.Time.s 10 }

type t = {
  cfg : config;
  obs : Obs.Sink.t option;
  engine : Netsim.Engine.t;
  graph : Graph.t;
  net : Network.t;
  lc : Lifecycle.t;
  svc : Service.t;
  skeptics : Skeptic.t array;  (* per link *)
  tags : Tag.t array;  (* per switch: last configuration it completed *)
  mutable global_tag : Tag.t;
  churn_rng : Netsim.Rng.t;
  mutable held : int list;
      (* guaranteed vc ids held across the boundary, newest first;
         referenced by id, never by the vc record — physical identity
         does not survive a restore *)
  mutable window : int;  (* completed windows *)
  mutable rounds : int;  (* reconfiguration rounds, seeds the nested runs *)
  mutable injected : bool;
  mutable leaks : int;
  mutable arrivals : int;
  mutable held_released : int;
  mutable reconfigs : int;
  mutable reconfigs_converged : int;
  mutable link_fails : int;
  mutable link_repairs : int;
  mutable partitions : int;
  mutable rerouted : int;
  mutable dissolved : int;
  mutable readmitted : int;
  (* divergence accounting since the last scheduled audit; serialized
     so a resumed run reaches the same verdicts as the uninterrupted
     one *)
  mutable prev_failed : int;
  mutable since_arrivals : int;
  mutable partition_since_audit : bool;
}

let validate cfg =
  if cfg.every < 1 then invalid_arg "Soak: every < 1";
  if cfg.total < 1 then invalid_arg "Soak: total < 1";
  if cfg.rate <= 0.0 then invalid_arg "Soak: rate <= 0";
  if cfg.audit_every < 1 then invalid_arg "Soak: audit_every < 1";
  if cfg.churn_per_window < 0 then invalid_arg "Soak: churn_per_window < 0"

let fresh ?obs ~mk_graph cfg =
  let graph = mk_graph () in
  if Graph.host_count graph < 2 then invalid_arg "Soak: need >= 2 hosts";
  let engine = Netsim.Engine.create ?obs () in
  let net = Network.create ~frame:tps.Tps.frame graph in
  let lc = Lifecycle.create ?obs ~engine net tps.Tps.lifecycle in
  let svc =
    Service.create ?obs ~engine ~shards:tps.Tps.shards net tps.Tps.service
  in
  {
    cfg;
    obs;
    engine;
    graph;
    net;
    lc;
    svc;
    skeptics =
      Array.init (Graph.link_count graph) (fun _ ->
          Skeptic.create ~params:skeptic ());
    tags = Array.make (Graph.switch_count graph) Tag.zero;
    global_tag = Tag.zero;
    churn_rng = Netsim.Rng.create (cfg.seed + 31);
    held = [];
    window = 0;
    rounds = 0;
    injected = false;
    leaks = 0;
    arrivals = 0;
    held_released = 0;
    reconfigs = 0;
    reconfigs_converged = 0;
    link_fails = 0;
    link_repairs = 0;
    partitions = 0;
    rerouted = 0;
    dissolved = 0;
    readmitted = 0;
    prev_failed = 0;
    since_arrivals = 0;
    partition_since_audit = false;
  }

(* The soak-control section: everything the harness itself carries
   across a boundary that is not inside one of the module sections. *)
let control_name = "soak-control"
let control_version = 1

let control_section t =
  Snap.make ~name:control_name ~version:control_version (fun w ->
      Snap.W.int w t.window;
      Snap.W.bool w t.injected;
      Snap.W.int w t.leaks;
      Snap.W.int w t.rounds;
      Tag.write w t.global_tag;
      Snap.W.int w (Array.length t.tags);
      Array.iter (Tag.write w) t.tags;
      Snap.W.int w (Array.length t.skeptics);
      Array.iter (Skeptic.write w) t.skeptics;
      Netsim.Rng.write w t.churn_rng;
      Snap.W.int_list w t.held;
      Snap.W.int w t.arrivals;
      Snap.W.int w t.held_released;
      Snap.W.int w t.reconfigs;
      Snap.W.int w t.reconfigs_converged;
      Snap.W.int w t.link_fails;
      Snap.W.int w t.link_repairs;
      Snap.W.int w t.partitions;
      Snap.W.int w t.rerouted;
      Snap.W.int w t.dissolved;
      Snap.W.int w t.readmitted;
      Snap.W.int w t.prev_failed;
      Snap.W.int w t.since_arrivals;
      Snap.W.bool w t.partition_since_audit)

let sections t =
  [
    control_section t;
    Netsim.Engine.save t.engine;
    Graph.save t.graph;
    Network.save t.net;
    Service.save t.svc;
    Lifecycle.save t.lc;
  ]

let find_section sections name =
  match List.find_opt (fun s -> Snap.section_name s = name) sections with
  | Some s -> s
  | None -> raise (Snap.Corrupt (Printf.sprintf "missing section %S" name))

let load ?obs cfg path =
  let ss = Snap.read_file path in
  let engine = Netsim.Engine.restore ?obs (find_section ss "netsim-engine") in
  let graph = Graph.restore (find_section ss "topo-graph") in
  let net = Network.restore ~graph (find_section ss "an2-network") in
  let svc =
    Service.restore ?obs ~engine net tps.Tps.service
      (find_section ss "an2-bwc-service")
  in
  let lc =
    Lifecycle.restore ?obs ~engine net tps.Tps.lifecycle
      (find_section ss "an2-lifecycle")
  in
  Snap.read (find_section ss control_name) ~name:control_name
    ~version:control_version (fun r ->
      let window = Snap.R.int r in
      let injected = Snap.R.bool r in
      let leaks = Snap.R.int r in
      let rounds = Snap.R.int r in
      let global_tag = Tag.read r in
      let n_tags = Snap.R.int r in
      if n_tags <> Graph.switch_count graph then
        Snap.R.corrupt "soak-control: tag count does not match the graph";
      let tags =
        (* reads must happen in switch order; Array.init does not
           guarantee element order *)
        let a = Array.make n_tags Tag.zero in
        for s = 0 to n_tags - 1 do
          a.(s) <- Tag.read r
        done;
        a
      in
      let n_skeptics = Snap.R.int r in
      if n_skeptics <> Graph.link_count graph then
        Snap.R.corrupt "soak-control: skeptic count does not match the graph";
      let skeptics =
        let a = Array.init n_skeptics (fun _ -> Skeptic.create ()) in
        for lid = 0 to n_skeptics - 1 do
          a.(lid) <- Skeptic.read r
        done;
        a
      in
      let churn_rng = Netsim.Rng.read r in
      let held = Snap.R.int_list r in
      let arrivals = Snap.R.int r in
      let held_released = Snap.R.int r in
      let reconfigs = Snap.R.int r in
      let reconfigs_converged = Snap.R.int r in
      let link_fails = Snap.R.int r in
      let link_repairs = Snap.R.int r in
      let partitions = Snap.R.int r in
      let rerouted = Snap.R.int r in
      let dissolved = Snap.R.int r in
      let readmitted = Snap.R.int r in
      let prev_failed = Snap.R.int r in
      let since_arrivals = Snap.R.int r in
      let partition_since_audit = Snap.R.bool r in
      if window < 0 || rounds < 0 || leaks < 0 then
        Snap.R.corrupt "soak-control: negative counter";
      List.iter
        (fun id ->
          if id < 0 then Snap.R.corrupt "soak-control: negative held vc id")
        held;
      {
        cfg;
        obs;
        engine;
        graph;
        net;
        lc;
        svc;
        skeptics;
        tags;
        global_tag;
        churn_rng;
        held;
        window;
        rounds;
        injected;
        leaks;
        arrivals;
        held_released;
        reconfigs;
        reconfigs_converged;
        link_fails;
        link_repairs;
        partitions;
        rerouted;
        dissolved;
        readmitted;
        prev_failed;
        since_arrivals;
        partition_since_audit;
      })

(* ---- invariant audit -------------------------------------------------- *)

let audit_state t =
  let v = ref [] in
  let add fmt = Printf.ksprintf (fun m -> v := m :: !v) fmt in
  if not (Netsim.Engine.quiescent t.engine) then add "engine not quiescent";
  if Lifecycle.in_flight t.lc <> 0 then
    add "%d setups in flight at a boundary" (Lifecycle.in_flight t.lc);
  if not (Service.quiescent t.svc) then add "admission service not quiescent";
  let orphans = Lifecycle.audit t.lc in
  if orphans <> 0 then add "%d orphaned routing-table entries" orphans;
  (* conservation: every link's reservation equals the cells of the
     live guaranteed circuits crossing it — the invariant inject_leak
     silently breaks *)
  let n_links = Graph.link_count t.graph in
  let expected = Array.make n_links 0 in
  Network.iter_vcs t.net (fun vc ->
      match vc.Network.cls with
      | Network.Guaranteed cells ->
        List.iter
          (fun lid -> expected.(lid) <- expected.(lid) + cells)
          vc.Network.links
      | Network.Best_effort -> ());
  let frame = Network.frame_length t.net in
  for lid = 0 to n_links - 1 do
    let r = Service.reserved t.svc lid in
    if r <> expected.(lid) then
      add "link %d: reserved %d but live guaranteed circuits hold %d" lid r
        expected.(lid);
    if r < 0 || r > frame then
      add "link %d: reserved %d outside [0, %d]" lid r frame
  done;
  let ls = Lifecycle.stats t.lc in
  if ls.Lifecycle.setups <> ls.Lifecycle.established + ls.Lifecycle.failed then
    add "lifecycle accounting: %d setups <> %d established + %d failed"
      ls.Lifecycle.setups ls.Lifecycle.established ls.Lifecycle.failed;
  let ss = Service.stats t.svc in
  if
    ss.Service.submitted
    <> ss.Service.granted + ss.Service.denied_no_route
       + ss.Service.denied_no_capacity
  then
    add "admission accounting: %d submitted <> %d granted + %d + %d denied"
      ss.Service.submitted ss.Service.granted ss.Service.denied_no_route
      ss.Service.denied_no_capacity;
  Array.iteri
    (fun s tag ->
      if Tag.compare tag t.global_tag > 0 then
        add "switch %d holds tag ahead of the global maximum" s)
    t.tags;
  List.rev !v

(* ---- fault, repair and reconfiguration events ------------------------- *)

let switch_end t lid =
  let l = Graph.link t.graph lid in
  match l.Graph.a.Graph.node with
  | Graph.Switch s -> Some s
  | Graph.Host _ -> (
    match l.Graph.b.Graph.node with
    | Graph.Switch s -> Some s
    | Graph.Host _ -> None)

(* Repair, the reconfiguration-time action: broken guaranteed circuits
   are rerouted (or dissolved when no admissible path remains) through
   the admission core, orphaned entries are swept, and — mid-window —
   a capped batch of dark best-effort circuits is re-admitted with
   paced setups. Synchronous; the caller anchors it on the timeline. *)
let do_repair t ~readmit =
  let broken = ref [] in
  Network.iter_vcs t.net (fun vc ->
      match vc.Network.cls with
      | Network.Guaranteed _
        when List.exists
               (fun lid -> not (Graph.link_working t.graph lid))
               vc.Network.links ->
        broken := vc.Network.vc_id :: !broken
      | _ -> ());
  (* vc-id order: iter_vcs order is a hash-table artifact and does not
     survive a restore *)
  List.iter
    (fun id ->
      match Network.find_vc t.net id with
      | Some vc -> (
        match Service.reroute_after_failure t.svc vc with
        | Ok () -> t.rerouted <- t.rerouted + 1
        | Error _ -> t.dissolved <- t.dissolved + 1)
      | None -> ())
    (List.sort compare !broken);
  ignore (Lifecycle.gc t.lc);
  if readmit then begin
    let dark =
      List.filter
        (fun vc -> vc.Network.cls = Network.Best_effort)
        (Lifecycle.dark t.lc)
    in
    let batch = List.filteri (fun i _ -> i < readmit_cap) dark in
    if batch <> [] then begin
      t.readmitted <- t.readmitted + List.length batch;
      let hold = Workload.hold_mean in
      Lifecycle.readmit t.lc batch
        ~on_circuit:(fun res ->
          match res with
          | Ok vc ->
            (* readmitted circuits are ephemeral like fresh ones *)
            Netsim.Engine.post t.engine ~delay:(max 1 hold) (fun () ->
                match Network.find_vc t.net vc.Network.vc_id with
                | Some vc' when vc' == vc -> Network.teardown t.net vc
                | _ -> ())
          | Error _ -> ())
        ~on_done:(fun () -> ())
    end
  end

let round t ~trigger =
  t.rounds <- t.rounds + 1;
  t.reconfigs <- t.reconfigs + 1;
  let params =
    { Reconfig.Runner.default_params with seed = t.cfg.seed + (7919 * t.rounds) }
  in
  let outcome =
    Reconfig.Runner.run ~params ?obs:t.obs t.graph ~triggers:[ (0, trigger) ]
  in
  let settle =
    if outcome.Reconfig.Runner.converged then begin
      t.reconfigs_converged <- t.reconfigs_converged + 1;
      (* the nested run's tags restart per invocation; the soak ledger
         keeps the monotone history the audit checks *)
      t.global_tag <-
        Tag.next t.global_tag
          ~initiator:outcome.Reconfig.Runner.final_tag.Tag.initiator;
      Array.iteri
        (fun s view ->
          if
            view.Reconfig.Runner.view_completed <> None
            && Tag.equal view.Reconfig.Runner.view_tag
                 outcome.Reconfig.Runner.final_tag
          then t.tags.(s) <- t.global_tag)
        outcome.Reconfig.Runner.switch_views;
      outcome.Reconfig.Runner.elapsed
    end
    else Reconfig.Runner.default_params.horizon
  in
  (* re-anchor the nested run's convergence instant on the outer
     timeline: repair lands once the new topology is distributed *)
  Netsim.Engine.post t.engine ~delay:(max 1 settle) (fun () ->
      do_repair t ~readmit:true)

let rec fail_event t lid outage =
  let l = Graph.link t.graph lid in
  match (l.Graph.a.Graph.node, l.Graph.b.Graph.node) with
  | Graph.Switch sa, Graph.Switch _ when Graph.link_working t.graph lid ->
    let now = Netsim.Engine.now t.engine in
    Graph.fail_link t.graph lid;
    t.link_fails <- t.link_fails + 1;
    Skeptic.note_failure t.skeptics.(lid) ~now;
    round t ~trigger:sa;
    Netsim.Engine.post t.engine ~delay:(max 1 outage) (fun () ->
        restore_event t lid)
  | _ -> ()

and restore_event t lid =
  Graph.restore_link t.graph lid;
  let now = Netsim.Engine.now t.engine in
  (* the skeptic's probation: the link is only believed — and the
     rejoin reconfiguration only run — after it behaves this long *)
  let wait = Skeptic.recovery_wait t.skeptics.(lid) ~now in
  Netsim.Engine.post t.engine ~delay:(max 1 wait) (fun () ->
      believe_event t lid)

and believe_event t lid =
  if Graph.link_working t.graph lid then begin
    t.link_repairs <- t.link_repairs + 1;
    match switch_end t lid with
    | Some s -> round t ~trigger:s
    | None -> ()
  end

let cut_event t =
  let _in_b, cut = Partition.find_separator t.graph in
  match cut with
  | [] -> ()
  | first :: _ ->
    t.partitions <- t.partitions + 1;
    let now = Netsim.Engine.now t.engine in
    List.iter
      (fun lid ->
        Graph.fail_link t.graph lid;
        t.link_fails <- t.link_fails + 1;
        Skeptic.note_failure t.skeptics.(lid) ~now)
      cut;
    (* both sides detect the cut and independently reconfigure — the
       divergent-epoch scenario the heal must reconcile *)
    let l = Graph.link t.graph first in
    (match (l.Graph.a.Graph.node, l.Graph.b.Graph.node) with
    | Graph.Switch sa, Graph.Switch sb ->
      round t ~trigger:sa;
      round t ~trigger:sb
    | _ -> ());
    Netsim.Engine.post t.engine ~delay:partition_span (fun () ->
        List.iter
          (fun lid ->
            Graph.restore_link t.graph lid;
            t.link_repairs <- t.link_repairs + 1)
          cut;
        match switch_end t first with
        | Some s -> round t ~trigger:s
        | None -> ())

(* ---- one window ------------------------------------------------------- *)

let run_window t =
  let cfg = t.cfg in
  let eng = t.engine in
  let start = Netsim.Engine.now eng in
  let w = t.window in
  let load_span =
    max 1 (int_of_float (load_fraction *. float_of_int cfg.every))
  in
  (* release the circuits held across the boundary, by id: the records
     behind the ids are whatever the (possibly restored) table holds *)
  let due = List.rev t.held in
  t.held <- [];
  List.iter
    (fun id ->
      match Network.find_vc t.net id with
      | Some vc when vc.Network.cls <> Network.Best_effort ->
        t.held_released <- t.held_released + 1;
        Service.release t.svc vc
      | _ -> ())
    due;
  (* this window's workload: same shape, fresh per-window seed *)
  let p = Workload.scale Workload.default_profile ~rate:cfg.rate in
  let p =
    {
      (Workload.with_seed p (cfg.seed + (1_000_003 * (w + 1)))) with
      Workload.duration = load_span;
    }
  in
  let arrivals = Workload.expand p ~hosts:(Graph.host_count t.graph) in
  let n = List.length arrivals in
  t.arrivals <- t.arrivals + n;
  t.since_arrivals <- t.since_arrivals + n;
  List.iteri
    (fun i a ->
      let open Workload in
      let hold_across =
        a.cells > 0 && i mod hold_every = 0
      in
      Netsim.Engine.post_at eng ~at:(start + a.at) (fun () ->
          if a.cells = 0 then
            Lifecycle.setup t.lc ~src_host:a.src_host ~dst_host:a.dst_host
              ~on_done:(function
                | Ok vc ->
                  Netsim.Engine.post eng ~delay:(max 1 a.hold) (fun () ->
                      match Network.find_vc t.net vc.Network.vc_id with
                      | Some vc' when vc' == vc -> Network.teardown t.net vc
                      | _ -> ())
                | Error _ -> ())
          else
            Service.submit t.svc ~src_host:a.src_host ~dst_host:a.dst_host
              ~cells:a.cells
              ~on_done:(function
                | Ok vc ->
                  if hold_across then t.held <- vc.Network.vc_id :: t.held
                  else
                    Netsim.Engine.post eng ~delay:(max 1 a.hold) (fun () ->
                        Service.release t.svc vc)
                | Error _ -> ())))
    arrivals;
  (* churn, pre-drawn here so the stream's draw order is independent
     of event interleaving *)
  for _ = 1 to cfg.churn_per_window do
    let rel = Netsim.Rng.int t.churn_rng load_span in
    let lid = Netsim.Rng.int t.churn_rng (Graph.link_count t.graph) in
    let outage =
      1
      + int_of_float
          (Netsim.Rng.exponential t.churn_rng
             ~mean:(float_of_int outage_mean))
    in
    Netsim.Engine.post_at eng ~at:(start + rel) (fun () ->
        fail_event t lid outage)
  done;
  (* partition episode on the scheduled windows *)
  if
    cfg.partition_every > 0
    && (w + 1) mod cfg.partition_every = 0
    && Graph.switch_count t.graph >= 2
  then begin
    t.partition_since_audit <- true;
    Netsim.Engine.post_at eng ~at:(start + (load_span / 4)) (fun () ->
        cut_event t)
  end;
  (* the seeded invariant violation, once, in the window covering it *)
  match cfg.inject with
  | Some (at, link, cells) when (not t.injected) && at < start + cfg.every ->
    t.injected <- true;
    Netsim.Engine.post_at eng ~at:(max at start) (fun () ->
        t.leaks <- t.leaks + 1;
        Service.inject_leak t.svc ~link ~cells)
  | _ -> ()

(* ---- checkpoints, the run loop, bisection ----------------------------- *)

type checkpoint = {
  ck_window : int;
  ck_time : Netsim.Time.t;  (** simulated clock at the boundary *)
  ck_digest : int;  (** CRC-32 of the encoded snapshot *)
  ck_bytes : int;
  ck_write_ns : int;  (** wall cost of encoding (and writing) it *)
  ck_audited : bool;
  ck_violations : string list;
}

type report = {
  windows : int;
  sim_time : Netsim.Time.t;
  checkpoints : checkpoint list;  (** this process's boundaries, in order *)
  violation : (int * string list) option;
      (** first audited violation: (window, what the audit said) *)
  final_digest : int;
  arrivals : int;
  established : int;
  failed : int;
  granted : int;
  denied : int;
  released : int;
  held_released : int;
  reconfigs : int;
  reconfigs_converged : int;
  link_failures : int;
  link_repairs : int;
  partitions : int;
  rerouted : int;
  dissolved : int;
  readmitted : int;
  leaks_injected : int;
  audits_run : int;
  audits_clean : int;
  gc_reclaimed : int;
  wall_s : float;
}

let ckpt_path dir w = Filename.concat dir (Printf.sprintf "ckpt-%05d.snap" w)
let final_path dir = Filename.concat dir "final.snap"

let write_blob path blob =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc blob);
  Sys.rename tmp path

let run ?obs ?dir ?resume ?stop_after ~mk_graph cfg =
  validate cfg;
  let wall0 = Netsim.Time.monotonic_ns () in
  let t =
    match resume with
    | None -> fresh ?obs ~mk_graph cfg
    | Some path -> load ?obs cfg path
  in
  let cks = ref [] in
  let audits_run = ref 0 and audits_clean = ref 0 in
  let violation = ref None in
  let checkpoint ~audited ~viols ~final =
    let t0 = Netsim.Time.monotonic_ns () in
    let secs = sections t in
    let blob = Snap.encode secs in
    (match dir with
    | Some d ->
      write_blob (ckpt_path d t.window) blob;
      if final then write_blob (final_path d) blob
    | None -> ());
    cks :=
      {
        ck_window = t.window;
        ck_time = Netsim.Engine.now t.engine;
        ck_digest = Snap.digest secs;
        ck_bytes = String.length blob;
        ck_write_ns = Netsim.Time.monotonic_ns () - t0;
        ck_audited = audited;
        ck_violations = viols;
      }
      :: !cks
  in
  (* checkpoint 0: the pristine state, the anchor bisection replays
     window 1 from *)
  if resume = None then checkpoint ~audited:false ~viols:[] ~final:false;
  let continue_ () =
    !violation = None
    && Netsim.Engine.now t.engine < cfg.total
    && match stop_after with Some k -> t.window < k | None -> true
  in
  while continue_ () do
    run_window t;
    (* the boundary: drain to quiescence, then repair, sweep, cold the
       caches, audit, checkpoint *)
    Netsim.Engine.run t.engine;
    do_repair t ~readmit:false;
    Lifecycle.flush_cache t.lc;
    t.window <- t.window + 1;
    let now = Netsim.Engine.now t.engine in
    let finished = now >= cfg.total in
    let stopping =
      match stop_after with Some k -> t.window >= k | None -> false
    in
    let audited_sched = t.window mod cfg.audit_every = 0 in
    let audited = audited_sched || finished || stopping in
    let viols =
      if not audited then []
      else begin
        let v = audit_state t in
        let ls = Lifecycle.stats t.lc in
        let failed_delta = ls.Lifecycle.failed - t.prev_failed in
        let div =
          if t.partition_since_audit || t.since_arrivals = 0 then []
          else if
            float_of_int failed_delta *. 100.0
            > cfg.terminal_failure_pct
              *. float_of_int t.since_arrivals
          then
            [
              Printf.sprintf
                "divergence: %d terminal failures over %d arrivals since \
                 the last audit"
                failed_delta t.since_arrivals;
            ]
          else []
        in
        v @ div
      end
    in
    (* the accounting resets only at *scheduled* audits: an extra
       audit forced by --stop-after must not perturb the state the
       checkpoint captures, or a resumed run would diverge from the
       uninterrupted one *)
    if audited_sched then begin
      let ls = Lifecycle.stats t.lc in
      t.prev_failed <- ls.Lifecycle.failed;
      t.since_arrivals <- 0;
      t.partition_since_audit <- false
    end;
    checkpoint ~audited ~viols ~final:finished;
    if audited then begin
      incr audits_run;
      if viols = [] then incr audits_clean
      else violation := Some (t.window, viols)
    end
  done;
  let ls = Lifecycle.stats t.lc in
  let ss = Service.stats t.svc in
  {
    windows = t.window;
    sim_time = Netsim.Engine.now t.engine;
    checkpoints = List.rev !cks;
    violation = !violation;
    final_digest = (match !cks with [] -> 0 | c :: _ -> c.ck_digest);
    arrivals = t.arrivals;
    established = ls.Lifecycle.established;
    failed = ls.Lifecycle.failed;
    granted = ss.Service.granted;
    denied = ss.Service.denied_no_route + ss.Service.denied_no_capacity;
    released = ss.Service.released;
    held_released = t.held_released;
    reconfigs = t.reconfigs;
    reconfigs_converged = t.reconfigs_converged;
    link_failures = t.link_fails;
    link_repairs = t.link_repairs;
    partitions = t.partitions;
    rerouted = t.rerouted;
    dissolved = t.dissolved;
    readmitted = t.readmitted;
    leaks_injected = t.leaks;
    audits_run = !audits_run;
    audits_clean = !audits_clean;
    gc_reclaimed = ls.Lifecycle.gc_reclaimed;
    wall_s = float_of_int (Netsim.Time.monotonic_ns () - wall0) /. 1e9;
  }

let audit_file ?obs cfg path = audit_state (load ?obs cfg path)

type bisect_report = {
  detected_window : int;
  offending_window : int;
  probes : int;  (** restore-and-audit probes the binary search spent *)
  replay_violations : string list;
      (** what the traced single-window replay reproduced *)
  replay_digest : int;
  bisect_wall_s : float;
}

let bisect ?obs ~dir cfg ~detected =
  if detected < 1 then invalid_arg "Soak.bisect: detected < 1";
  let wall0 = Netsim.Time.monotonic_ns () in
  let probes = ref 0 in
  let dirty w =
    incr probes;
    audit_file cfg (ckpt_path dir w) <> []
  in
  (* the last scheduled audit before [detected] passed (or window 0 is
     pristine); a persistent violation is monotone from its onset, so
     binary search over the stored checkpoints localizes it *)
  let lo = ref (max 0 (detected - cfg.audit_every)) in
  let hi = ref detected in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if dirty mid then hi := mid else lo := mid
  done;
  let offending = !hi in
  (* replay just the offending window from the checkpoint before it,
     with whatever tracing sink the caller passed *)
  let r =
    run ?obs
      ~resume:(ckpt_path dir (offending - 1))
      ~stop_after:offending
      ~mk_graph:(fun () ->
        invalid_arg "Soak.bisect: replay resumes, it does not rebuild")
      cfg
  in
  {
    detected_window = detected;
    offending_window = offending;
    probes = !probes;
    replay_violations =
      (match r.violation with Some (_, v) -> v | None -> []);
    replay_digest = r.final_digest;
    bisect_wall_s =
      float_of_int (Netsim.Time.monotonic_ns () - wall0) /. 1e9;
  }
