type params = {
  proc_delay : Netsim.Time.t;
  edge_cost : Netsim.Time.t;
  horizon : Netsim.Time.t;
  control_loss : float;
  retransmit_after : Netsim.Time.t;
  seed : int;
}

let default_params =
  {
    proc_delay = Netsim.Time.us 100;
    edge_cost = 0;
    horizon = Netsim.Time.s 1;
    control_loss = 0.0;
    retransmit_after = Netsim.Time.ms 1;
    seed = 0;
  }

type switch_view = {
  view_tag : Tag.t;
  view_completed : Tag.t option;
  view_completed_at : Netsim.Time.t;
  view_topology_ok : bool;
}

type outcome = {
  converged : bool;
  final_tag : Tag.t;
  elapsed : Netsim.Time.t;
  messages : int;
  wire_transmissions : int;
  agreement : bool;
  topology_correct : bool;
  tree_depth : int;
  bfs_depth : int;
  phase_propagation : Netsim.Time.t;
  phase_collection : Netsim.Time.t;
  phase_distribution : Netsim.Time.t;
  switch_views : switch_view array;
  completions : (int * Tag.t * Netsim.Time.t * bool) list;
}

type event =
  [ `Fail_link of int
  | `Restore_link of int
  | `Fail_switch of int
  | `Restore_switch of int ]

let switch_edges g s =
  let acc = ref [] in
  Topo.Graph.iter_switch_neighbors g s (fun _ lid -> acc := lid :: !acc);
  Topo.Graph.iter_hosts_of_switch g s (fun _ lid -> acc := lid :: !acc);
  Array.of_list (List.sort_uniq Int.compare !acc)

let working_edges g ~at =
  let m = Topo.Graph.link_count g in
  let buf = Array.make m 0 and k = ref 0 in
  for lid = 0 to m - 1 do
    let l = Topo.Graph.link g lid in
    let s =
      match (l.Topo.Graph.a.node, l.Topo.Graph.b.node) with
      | Topo.Graph.Switch s, _ | _, Topo.Graph.Switch s -> s
      | Topo.Graph.Host _, Topo.Graph.Host _ -> -1
    in
    if s >= 0 && l.Topo.Graph.state = Topo.Graph.Working && at s then begin
      buf.(!k) <- lid;
      incr k
    end
  done;
  Array.sub buf 0 !k

(* The truth oracle. [judge ~root learned] tells whether [learned] is
   the true working topology — switch links and host attachments — of
   [root]'s component as the graph stands now. Components are labelled
   and each component's topology scanned once per graph version, not
   once per completing switch; a working switch link has both ends in
   one component. The verdict is cached too: every switch completing
   one configuration keeps the root's Distribute payload (one physical
   array), and a component's truth is one physical array until the
   graph changes, so [judge] reuses its last verdict when both arrays
   are [==] to the last pair and compares structurally otherwise. That
   is one comparison per distinct learned value, not one per
   completion, and no verdict is weakened: these arrays are never
   mutated, so [==] ones are [=]. Each instance is single-owner: [run]
   makes one per partition (completions run on partition domains);
   partition 0's also serves the final evaluation, once every engine is
   quiescent. *)
type truth = {
  component : int -> int;  (* component label of a switch, this version *)
  judge : root:int -> int array -> bool;
}

let make_truth g =
  let n = Topo.Graph.switch_count g in
  let stamp = ref (-1) in
  let comp = Array.make (max n 1) (-1) in
  let edges : (int, int array) Hashtbl.t = Hashtbl.create 8 in
  let relabel () =
    Array.fill comp 0 n (-1);
    Hashtbl.reset edges;
    let next = ref 0 in
    let queue = Queue.create () in
    for s0 = 0 to n - 1 do
      if comp.(s0) < 0 then begin
        let c = !next in
        incr next;
        comp.(s0) <- c;
        Queue.add s0 queue;
        while not (Queue.is_empty queue) do
          let s = Queue.pop queue in
          Topo.Graph.iter_switch_neighbors g s (fun s' _ ->
              if comp.(s') < 0 then begin
                comp.(s') <- c;
                Queue.add s' queue
              end)
        done
      end
    done
  in
  let component s =
    let v = Topo.Graph.version g in
    if v <> !stamp then begin
      stamp := v;
      relabel ()
    end;
    comp.(s)
  in
  let truth_of root =
    let c = component root in
    match Hashtbl.find_opt edges c with
    | Some es -> es
    | None ->
      let es = working_edges g ~at:(fun s -> comp.(s) = c) in
      Hashtbl.add edges c es;
      es
  in
  let last_learned = ref [||] and last_truth = ref [||] and last_ok = ref true in
  let judge ~root learned =
    let truth = truth_of root in
    if not (learned == !last_learned && truth == !last_truth) then begin
      last_learned := learned;
      last_truth := truth;
      last_ok := learned = truth
    end;
    !last_ok
  in
  { component; judge }

let make_judge g = (make_truth g).judge

(* Per-switch protocol environments over cached neighbor and link-id
   arrays: the protocol reads its working neighbors on every invite,
   and re-deriving them from the graph per message is O(links) in
   aggregate. The arrays are rebuilt per switch only when the graph
   version moves (a mid-run [event]); between changes every env read
   is O(1). Single-owner like [make_truth]: each switch's env is only
   exercised from the engine that owns the switch, and the graph only
   changes while engines are quiescent. *)
let make_envs g =
  let n = Topo.Graph.switch_count g in
  let stamp = Array.make (max n 1) (-1) in
  let arrays = Array.make (max n 1) ([||], [||]) in
  let arrays_of id =
    let v = Topo.Graph.version g in
    if stamp.(id) <> v then begin
      let deg = Topo.Graph.switch_degree g id in
      let a = Array.make deg 0 in
      let i = ref 0 in
      Topo.Graph.iter_switch_neighbors g id (fun s' _ ->
          a.(!i) <- s';
          incr i);
      arrays.(id) <- (a, switch_edges g id);
      stamp.(id) <- v
    end;
    arrays.(id)
  in
  fun id ->
    {
      Proto.neighbors = (fun () -> fst (arrays_of id));
      local_edges = (fun () -> snd (arrays_of id));
    }

(* Line-card handling time of one message: the flat per-message cost
   plus, when the caller models payload-dependent processing
   ([edge_cost] > 0), a per-edge cost for the topology fragments in
   Report/Distribute payloads. The default [edge_cost = 0] keeps the
   historical timing byte-for-byte. *)
let handling_delay params msg =
  if params.edge_cost = 0 then params.proc_delay
  else
    match msg with
    | Proto.Report (_, _, reported) ->
      params.proc_delay + (params.edge_cost * reported)
    | Proto.Distribute (_, es) ->
      params.proc_delay + (params.edge_cost * Array.length es)
    | Proto.Invite _ | Proto.Ack _ | Proto.Reject _ -> params.proc_delay

(* Post-run judgment: everything it reads is quiescent by the time it
   runs on the calling domain. [find_join] abstracts where the
   per-(switch, tag) first-join times live (one table per
   partition). *)
let evaluate ~obs ~g ~truth ~nodes ~first_trigger ~completion ~find_join
    ~messages ~wire_transmissions ~completions =
  let n = Topo.Graph.switch_count g in
  let obs_on = obs.Obs.Sink.enabled in
  let c_wire = Obs.Sink.counter obs "reconfig.wire_transmissions" in
  let g_converged = Obs.Sink.gauge obs "reconfig.converged" in
  (* Evaluate: the surviving configuration is the largest tag. *)
  let final_tag =
    Array.fold_left
      (fun acc node ->
        let t = Proto.current_tag node in
        if Tag.(t > acc) then t else acc)
      Tag.zero nodes
  in
  let root = final_tag.Tag.initiator in
  let root_comp = truth.component root in
  let in_component = Array.init n (fun s -> truth.component s = root_comp) in
  let all_done = ref true
  and last_done = ref first_trigger
  and agreement = ref true
  and topology_correct = ref true in
  for s = 0 to n - 1 do
    if in_component.(s) then
      match completion.(s) with
      | Some (t, at) when Tag.equal t final_tag ->
        if at > !last_done then last_done := at;
        (match Proto.completed nodes.(s) with
         | Some (_, topo) ->
           if not (truth.judge ~root topo) then begin
             agreement := false;
             topology_correct := false
           end
         | None -> all_done := false)
      | _ -> all_done := false
  done;
  (* Depth of the propagation-order tree, following parent pointers. *)
  let tree_depth =
    if not !all_done then -1
    else begin
      let rec depth_of s guard =
        if guard > n then n
        else
          match Proto.parent nodes.(s) with
          | None -> 0
          | Some p -> 1 + depth_of p (guard + 1)
      in
      let best = ref 0 in
      for s = 0 to n - 1 do
        if in_component.(s) then begin
          let d = depth_of s 0 in
          if d > !best then best := d
        end
      done;
      !best
    end
  in
  let bfs_depth = Topo.Spanning.height (Topo.Spanning.bfs g ~root) in
  (* Phase boundaries of the winning configuration. *)
  let last_join = ref first_trigger in
  for s = 0 to n - 1 do
    if in_component.(s) then
      match find_join s final_tag with
      | Some at when at > !last_join -> last_join := at
      | _ -> ()
  done;
  let root_done =
    match completion.(root) with Some (_, at) -> at | None -> !last_join
  in
  if obs_on then begin
    Obs.Metrics.Counter.set c_wire wire_transmissions;
    Obs.Metrics.Gauge.set g_converged (if !all_done then 1.0 else 0.0);
    (* Phase spans of the winning configuration, on their own track. *)
    let propagation = max 0 (!last_join - first_trigger) in
    let collection = max 0 (root_done - !last_join) in
    let distribution = max 0 (!last_done - root_done) in
    Obs.Sink.span obs ~name:"phase.propagation" ~cat:"reconfig"
      ~ts:first_trigger ~dur:propagation ~tid:1000 ~v:root;
    Obs.Sink.span obs ~name:"phase.collection" ~cat:"reconfig" ~ts:!last_join
      ~dur:collection ~tid:1000 ~v:root;
    Obs.Sink.span obs ~name:"phase.distribution" ~cat:"reconfig" ~ts:root_done
      ~dur:distribution ~tid:1000 ~v:root
  end;
  (* Per-switch view for callers evaluating more than one component at
     once (a partitioned network converges per component; the global
     max-tag evaluation above only covers the winner's side). Each
     completed topology is judged against the truth of that switch's
     own component. *)
  let switch_views =
    Array.init n (fun s ->
        let view_tag = Proto.current_tag nodes.(s) in
        match (Proto.completed nodes.(s), completion.(s)) with
        | Some (t, topo), Some (t', at) when Tag.equal t t' ->
          {
            view_tag;
            view_completed = Some t;
            view_completed_at = at;
            view_topology_ok = truth.judge ~root:s topo;
          }
        | _ ->
          {
            view_tag;
            view_completed = None;
            view_completed_at = 0;
            view_topology_ok = false;
          })
  in
  {
    converged = !all_done;
    final_tag;
    elapsed = (if !all_done then !last_done - first_trigger else 0);
    messages;
    wire_transmissions;
    agreement = !all_done && !agreement;
    topology_correct = !all_done && !topology_correct;
    tree_depth;
    bfs_depth;
    phase_propagation = max 0 (!last_join - first_trigger);
    phase_collection = max 0 (root_done - !last_join);
    phase_distribution = max 0 (!last_done - root_done);
    switch_views;
    completions;
  }

(* Switches are partitioned across the engines of one cluster — a
   single engine at [partitions = 1] — with one conservative window per
   cross-partition latency. State ownership is strict: everything a
   switch's protocol events touch (its node, its partition's rng,
   message counter, joins table, channel table and completion log)
   belongs to its partition and is only ever mutated from that
   partition's engine; the shared [completion] array is written at
   distinct indices; the graph is only mutated by at-barrier actions
   while every engine is quiescent. That ownership is what makes the
   run race-free and its outcome independent of the domain count. *)
let run ?(params = default_params) ?(obs = Obs.Sink.null) ?heartbeat
    ?(events = []) ?(partitions = 1) ?(domains = 1) g ~triggers =
  if triggers = [] then invalid_arg "Runner.run: no triggers";
  if partitions < 1 then invalid_arg "Runner.run: partitions must be >= 1";
  if domains < 1 then invalid_arg "Runner.run: domains must be >= 1";
  let n = Topo.Graph.switch_count g in
  let pc =
    Topo.Partition.cluster ?heartbeat ~label:"reconfig" ~obs
      ~horizon:params.horizon g ~parts:partitions
  in
  let { Topo.Partition.part; parts; sinks; engines; cl; _ } = pc in
  let obs_on = obs.Obs.Sink.enabled in
  let nodes = Array.init n (fun id -> Proto.create_node ~id) in
  let messages = Array.make parts 0 in
  let completions_log = Array.make parts [] in
  let completion = Array.make n None in
  (* First time each switch joined each configuration (for the phase
     breakdown of the winning one). Sized for a few configurations per
     switch. *)
  let joins : (int * Tag.t, Netsim.Time.t) Hashtbl.t array =
    Array.init parts (fun _ -> Hashtbl.create (max 64 (4 * n / parts)))
  in
  (* Independent loss stream per partition: a partition's draws happen
     in its own deterministic event order, so the streams stay stable
     at any domain count. One partition keeps the historical stream. *)
  let rngs =
    Array.init parts (fun p ->
        Netsim.Rng.create
          (if parts = 1 then params.seed
           else params.seed + ((p + 1) * 0x2545f4914f6cdd1)))
  in
  (* one channel per directed link in steady state: ~4 per switch *)
  let channels : (int * int, Proto.message Reliable.t) Hashtbl.t array =
    Array.init parts (fun _ -> Hashtbl.create (max 64 (4 * n / parts)))
  in
  (* Per-partition truth oracles (completion-time judgments run on
     partition domains; each oracle's cache is single-owner) and one
     shared env factory — its per-switch slots are only ever touched by
     the partition that owns the switch. The graph's adjacency index is
     warmed here, before workers spawn: fail/restore events never
     invalidate it, so no domain rebuilds it mid-run. *)
  (if n > 0 then ignore (Topo.Graph.switch_degree g 0));
  let truths = Array.init parts (fun _ -> make_truth g) in
  let env_of = make_envs g in
  let pcounter name = Array.map (fun s -> Obs.Sink.counter s name) sinks in
  let c_messages = pcounter "reconfig.messages" in
  let c_invite = pcounter "reconfig.msg.invite" in
  let c_ack = pcounter "reconfig.msg.ack" in
  let c_report = pcounter "reconfig.msg.report" in
  let c_distribute = pcounter "reconfig.msg.distribute" in
  let c_reject = pcounter "reconfig.msg.reject" in
  let c_completed = pcounter "reconfig.switches.completed" in
  let link_latency src dst =
    match Topo.Graph.switch_link g src dst with
    | Some lid -> Some (Topo.Graph.link g lid).Topo.Graph.latency
    | None -> None
  in
  let window = 32 in
  (* All control traffic crosses the wire through a reliable go-back-N
     channel per directed link (the substrate the paper's protocol
     assumes). With [control_loss = 0] nothing is ever resent and the
     channel goes without its resend half, but it still shapes the
     traffic: a sender with more than a window of messages outstanding
     holds the rest until acks make room. Messages cross partitions
     through the cluster's send hook; an inter-switch link's latency
     is >= the lookahead by construction, so every hop of the reliable
     channel is admissible. Sender-side channel state lives with the
     sending switch, receiver-side state with the receiving one. *)
  let rec channel ~src ~dst latency =
    let sp = part.(src) and dp = part.(dst) in
    match Hashtbl.find_opt channels.(sp) (src, dst) with
    | Some ch -> ch
    | None ->
      let post_fwd thunk =
        Netsim.Cluster.send cl ~src:sp ~dst:dp ~delay:latency thunk
      and post_back thunk =
        Netsim.Cluster.send cl ~src:dp ~dst:sp ~delay:latency thunk
      and arrive msg =
        (* Line-card software handles the message after its
           processing delay. *)
        Netsim.Engine.post engines.(dp) ~delay:(handling_delay params msg)
          (fun () ->
            messages.(dp) <- messages.(dp) + 1;
            deliver ~src ~dst msg)
      in
      (* A wire that cannot lose, under a timer that cannot fire before
         the oldest message's ack is back, needs no resend half
         (DESIGN.md, "One reliable control channel"). *)
      let resend =
        if params.control_loss <= 0.0 && 2 * latency < params.retransmit_after
        then None
        else
          Some
            {
              Reliable.sched_local =
                (fun ~delay thunk -> Netsim.Engine.post engines.(sp) ~delay thunk);
              lost_fwd =
                (fun () -> Netsim.Rng.bernoulli rngs.(sp) params.control_loss);
              lost_back =
                (fun () -> Netsim.Rng.bernoulli rngs.(dp) params.control_loss);
              retransmit_after = params.retransmit_after;
            }
      in
      let ch =
        Reliable.create ~post_fwd ~post_back ~resend ~window ~deliver:arrive
      in
      Hashtbl.add channels.(sp) (src, dst) ch;
      ch
  and perform src actions =
    let sp = part.(src) in
    List.iter
      (function
        | Proto.Completed tag ->
          let at = Netsim.Engine.now engines.(sp) in
          completion.(src) <- Some (tag, at);
          (* Judge the learned topology against the truth of this
             switch's component as the graph stands right now — with
             mid-run [events] the graph at completion time is the one
             this configuration was discovering. *)
          let ok =
            match Proto.completed nodes.(src) with
            | Some (t, topo) when Tag.equal t tag ->
              truths.(sp).judge ~root:src topo
            | _ -> false
          in
          completions_log.(sp) <- (src, tag, at, ok) :: completions_log.(sp);
          if obs_on then begin
            Obs.Metrics.Counter.incr c_completed.(sp);
            Obs.Sink.instant sinks.(sp) ~name:"completed" ~cat:"reconfig"
              ~ts:at ~tid:src ~v:src
          end
        | Proto.Send { dst; msg } ->
          (* A message only travels if the link works at send time; a
             cell handed to a link that [events] killed is lost on the
             floor (cells already in flight when a link dies still
             arrive — they are on the wire). *)
          (match link_latency src dst with
           | None -> ()
           | Some latency -> Reliable.send (channel ~src ~dst latency) msg))
      actions
  and deliver ~src ~dst msg =
    let dp = part.(dst) in
    if obs_on then begin
      Obs.Metrics.Counter.incr c_messages.(dp);
      Obs.Metrics.Counter.incr
        (match msg with
         | Proto.Invite _ -> c_invite.(dp)
         | Proto.Ack _ -> c_ack.(dp)
         | Proto.Report _ -> c_report.(dp)
         | Proto.Distribute _ -> c_distribute.(dp)
         | Proto.Reject _ -> c_reject.(dp))
    end;
    let before = Proto.current_tag nodes.(dst) in
    perform dst (Proto.handle nodes.(dst) (env_of dst) ~from:src msg);
    let after = Proto.current_tag nodes.(dst) in
    if (not (Tag.equal before after)) && not (Hashtbl.mem joins.(dp) (dst, after))
    then begin
      Hashtbl.add joins.(dp) (dst, after) (Netsim.Engine.now engines.(dp));
      if obs_on then
        Obs.Sink.instant sinks.(dp) ~name:"join" ~cat:"reconfig"
          ~ts:(Netsim.Engine.now engines.(dp)) ~tid:dst ~v:dst
    end
  in
  (* Topology mutations are global state: they run between windows,
     alone, before any same-time protocol event — so an event and a
     trigger at the same instant see the event first (detection
     follows the change). *)
  List.iter
    (fun (at, ev) ->
      Netsim.Cluster.at_barrier cl ~at (fun () ->
          match ev with
          | `Fail_link lid -> Topo.Graph.fail_link g lid
          | `Restore_link lid -> Topo.Graph.restore_link g lid
          | `Fail_switch s -> Topo.Graph.fail_switch g s
          | `Restore_switch s -> Topo.Graph.restore_switch g s))
    events;
  let first_trigger =
    List.fold_left (fun acc (t, _) -> min acc t) max_int triggers
  in
  List.iter
    (fun (at, s) ->
      let sp = part.(s) in
      Netsim.Engine.post_at engines.(sp) ~at (fun () ->
          if obs_on then
            Obs.Sink.instant sinks.(sp) ~name:"trigger" ~cat:"reconfig" ~ts:at
              ~tid:s ~v:s;
          perform s (Proto.initiate nodes.(s) (env_of s));
          let tag = Proto.current_tag nodes.(s) in
          if not (Hashtbl.mem joins.(sp) (s, tag)) then
            Hashtbl.add joins.(sp) (s, tag) (Netsim.Engine.now engines.(sp))))
    triggers;
  Topo.Partition.run ~domains pc;
  let messages_total = Array.fold_left ( + ) 0 messages in
  let wire_transmissions =
    Array.fold_left
      (fun acc tbl ->
        Hashtbl.fold (fun _ ch a -> a + Reliable.transmissions ch) tbl acc)
      0 channels
  in
  (* One partition keeps its historical dispatch order; several logs
     merge by (time, switch, tag), an order no domain count affects. *)
  let completions =
    if parts = 1 then List.rev completions_log.(0)
    else
      List.sort
        (fun (s1, t1, a1, _) (s2, t2, a2, _) ->
          match compare (a1 : int) a2 with
          | 0 -> (
            match compare (s1 : int) s2 with 0 -> Tag.compare t1 t2 | c -> c)
          | c -> c)
        (List.concat_map List.rev (Array.to_list completions_log))
  in
  evaluate ~obs ~g ~truth:truths.(0) ~nodes ~first_trigger ~completion
    ~find_join:(fun s tag -> Hashtbl.find_opt joins.(part.(s)) (s, tag))
    ~messages:messages_total ~wire_transmissions ~completions

let run_after_failure ?(params = default_params)
    ?(detection_delay = Netsim.Time.ms 100) ?obs ?heartbeat ?partitions
    ?domains g ~fail =
  (* Which switches see a working link die? *)
  let affected_of_link lid =
    let l = Topo.Graph.link g lid in
    let ends = [ l.Topo.Graph.a.node; l.b.node ] in
    List.filter_map
      (function Topo.Graph.Switch s -> Some s | Topo.Graph.Host _ -> None)
      ends
  in
  let affected =
    match fail with
    | `Link lid ->
      let l = Topo.Graph.link g lid in
      if l.Topo.Graph.state = Topo.Graph.Dead then []
      else begin
        Topo.Graph.fail_link g lid;
        affected_of_link lid
      end
    | `Switch s ->
      let neighbors = List.map fst (Topo.Graph.switch_neighbors g s) in
      Topo.Graph.fail_switch g s;
      neighbors
  in
  let affected = List.sort_uniq compare affected in
  (* The dead switch's own links are gone, so it cannot participate;
     survivors detect the loss and trigger. *)
  let survivors =
    match fail with
    | `Switch s -> List.filter (fun x -> x <> s) affected
    | `Link _ -> affected
  in
  if survivors = [] then invalid_arg "Runner.run_after_failure: nothing detects";
  let triggers = List.map (fun s -> (detection_delay, s)) survivors in
  let outcome = run ~params ?obs ?heartbeat ?partitions ?domains g ~triggers in
  (* Count elapsed from the failure itself (time 0). *)
  if outcome.converged then
    { outcome with elapsed = outcome.elapsed + detection_delay }
  else outcome
