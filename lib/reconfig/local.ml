type outcome = {
  converged : bool;
  participants : int;
  total_switches : int;
  messages : int;
  elapsed : Netsim.Time.t;
  region_correct : bool;
}

(* Working topology of the whole graph (all components), as edges. *)
let whole_topology g =
  let n = Topo.Graph.switch_count g in
  let edges = ref [] in
  for s = 0 to n - 1 do
    List.iter
      (fun (s', _) -> edges := Proto.Sw_edge (s, s') :: !edges)
      (Topo.Graph.switch_neighbors g s);
    List.iter
      (fun (h, _) -> edges := Proto.Host_edge (s, h) :: !edges)
      (Topo.Graph.hosts_of_switch g s)
  done;
  List.sort_uniq Proto.compare_edge (List.map Proto.normalize_edge !edges)

type message =
  | Invite of { ttl : int }
  | Ack of bool
  | Report of { edges : Proto.edge list; members : int list }
  | Distribute of { edges : Proto.edge list; members : int list }

(* Per-switch participation state in one scoped configuration. *)
type part = {
  mutable parent : int option;
  mutable children : int list;
  mutable pending_acks : int;
  mutable acks_done : bool;
  mutable reported : int list;
  mutable collected_edges : Proto.edge list;
  mutable collected_members : int list;
  mutable sent_report : bool;
  mutable done_ : bool;
}

let fresh_part parent =
  {
    parent;
    children = [];
    pending_acks = 0;
    acks_done = false;
    reported = [];
    collected_edges = [];
    collected_members = [];
    sent_report = false;
    done_ = false;
  }

let run_after_failure ?(proc_delay = Netsim.Time.us 100) ?(radius = 2)
    ?(scope = fun (_ : int) -> true) ?(obs = Obs.Sink.null) g ~fail =
  (* A negative TTL never reaches 0: the repair would flood everything. *)
  if radius < 0 then invalid_arg "Local.run_after_failure: negative radius";
  let link = Topo.Graph.link g fail in
  (* A host attachment has one switch endpoint, so one initiator. *)
  let initiators =
    match (link.Topo.Graph.a.node, link.Topo.Graph.b.node) with
    | Topo.Graph.Switch a, Topo.Graph.Switch b -> [ a; b ]
    | Topo.Graph.Switch s, Topo.Graph.Host _
    | Topo.Graph.Host _, Topo.Graph.Switch s -> [ s ]
    | _ -> invalid_arg "Local.run_after_failure: not a switch link"
  in
  if link.Topo.Graph.state <> Topo.Graph.Working then
    invalid_arg "Local.run_after_failure: link already dead";
  List.iter
    (fun s ->
      if not (scope s) then
        invalid_arg "Local.run_after_failure: initiator outside scope")
    initiators;
  let prior = whole_topology g in
  Topo.Graph.fail_link g fail;
  let truth = whole_topology g in
  let n = Topo.Graph.switch_count g in
  let engine = Netsim.Engine.create ~obs () in
  let messages = ref 0 in
  let c_messages = Obs.Sink.counter obs "reconfig.local.messages" in
  let c_participants = Obs.Sink.counter obs "reconfig.local.participants" in
  (* Per switch: configuration id (= its initiator) -> participation.
     Scoped configurations are independent; a switch may be in both. *)
  let state : (int, part) Hashtbl.t array =
    Array.init n (fun _ -> Hashtbl.create 4)
  in
  (* Merged topology view per switch, initialized to the prior one. *)
  let view = Array.make n prior in
  let last_done = ref 0 in
  let neighbors s =
    let acc = ref [] in
    Topo.Graph.iter_switch_neighbors g s (fun s' _ -> acc := s' :: !acc);
    List.rev !acc
  in
  let local_edges s =
    let sw = ref [] and ho = ref [] in
    Topo.Graph.iter_switch_neighbors g s (fun s' _ ->
        sw := Proto.Sw_edge (s, s') :: !sw);
    Topo.Graph.iter_hosts_of_switch g s (fun h _ ->
        ho := Proto.Host_edge (s, h) :: !ho);
    List.rev_append !sw (List.rev !ho)
  in
  let latency s dst =
    match Topo.Graph.switch_link g s dst with
    | Some lid -> Some (Topo.Graph.link g lid).Topo.Graph.latency
    | None -> None
  in
  (* The merge: re-derive every participant's adjacency from the
     collected edges, keep everything else from the previous view.
     Membership tests go through a scratch bool array so one merge is
     O(view + members), not O(view * members) — at fat-tree scale the
     view is the whole fabric and the naive product dominates the
     run. The engine is single-threaded, so one scratch is safe. *)
  let in_members = Array.make n false in
  let apply_merge s edges members =
    List.iter (fun m -> in_members.(m) <- true) members;
    let touched e =
      match Proto.normalize_edge e with
      | Proto.Sw_edge (x, y) -> in_members.(x) || in_members.(y)
      | Proto.Host_edge (x, _) -> in_members.(x)
    in
    view.(s) <-
      List.sort_uniq Proto.compare_edge
        (List.filter (fun e -> not (touched e)) view.(s)
        @ List.map Proto.normalize_edge edges);
    List.iter (fun m -> in_members.(m) <- false) members;
    last_done := Netsim.Engine.now engine
  in
  let rec send ~cfg ~src ~dst msg =
    match latency src dst with
    | None -> ()
    | Some lat ->
      Netsim.Engine.post engine ~delay:(lat + proc_delay) (fun () ->
          incr messages;
          if obs.Obs.Sink.enabled then Obs.Metrics.Counter.incr c_messages;
          handle ~cfg ~self:dst ~from:src msg)
  and finish_collection ~cfg ~self p =
    if not p.sent_report then begin
      p.sent_report <- true;
      let edges =
        List.sort_uniq Proto.compare_edge (local_edges self @ p.collected_edges)
      in
      let members = List.sort_uniq compare (self :: p.collected_members) in
      match p.parent with
      | Some up -> send ~cfg ~src:self ~dst:up (Report { edges; members })
      | None ->
        (* Root of this scoped configuration: merge and distribute. *)
        p.done_ <- true;
        apply_merge self edges members;
        List.iter
          (fun c -> send ~cfg ~src:self ~dst:c (Distribute { edges; members }))
          p.children
    end
  and handle ~cfg ~self ~from msg =
    match (msg, Hashtbl.find_opt state.(self) cfg) with
    | Invite { ttl }, None ->
      let p = fresh_part (Some from) in
      Hashtbl.add state.(self) cfg p;
      send ~cfg ~src:self ~dst:from (Ack true);
      let others =
        List.filter (fun s -> s <> from && scope s) (neighbors self)
      in
      if ttl = 0 || others = [] then begin
        (* Boundary leaf: contribute own adjacency, invite no one. *)
        p.acks_done <- true;
        finish_collection ~cfg ~self p
      end
      else begin
        p.pending_acks <- List.length others;
        List.iter
          (fun s -> send ~cfg ~src:self ~dst:s (Invite { ttl = ttl - 1 }))
          others
      end
    | Invite _, Some _ -> send ~cfg ~src:self ~dst:from (Ack false)
    | Ack accepted, Some p when not p.acks_done ->
      if accepted then p.children <- from :: p.children;
      p.pending_acks <- p.pending_acks - 1;
      if p.pending_acks = 0 then begin
        p.acks_done <- true;
        (* Children may already have reported (their leaf reports can
           overtake slower declines from other neighbors). *)
        if List.length p.reported = List.length p.children then
          finish_collection ~cfg ~self p
      end
    | Report { edges; members }, Some p when not (List.mem from p.reported) ->
      p.reported <- from :: p.reported;
      p.collected_edges <- edges @ p.collected_edges;
      p.collected_members <- members @ p.collected_members;
      if p.acks_done && List.length p.reported = List.length p.children then
        finish_collection ~cfg ~self p
    | Distribute { edges; members }, Some p when not p.done_ ->
      p.done_ <- true;
      apply_merge self edges members;
      List.iter
        (fun c -> send ~cfg ~src:self ~dst:c (Distribute { edges; members }))
        p.children
    | _ -> ()
  in
  (* Both endpoints of the failed link detect the change and start
     their own scoped configuration. *)
  let initiate cfg =
    let p = fresh_part None in
    Hashtbl.add state.(cfg) cfg p;
    let others = List.filter scope (neighbors cfg) in
    if others = [] || radius = 0 then begin
      p.acks_done <- true;
      finish_collection ~cfg ~self:cfg p
    end
    else begin
      p.pending_acks <- List.length others;
      List.iter
        (fun s -> send ~cfg ~src:cfg ~dst:s (Invite { ttl = radius - 1 }))
        others
    end
  in
  List.iter initiate initiators;
  Netsim.Engine.run engine;
  (* Evaluate. *)
  let all_participants =
    let acc = ref [] in
    for s = 0 to n - 1 do
      if Hashtbl.length state.(s) > 0 then acc := s :: !acc
    done;
    !acc
  in
  let converged =
    List.for_all
      (fun s -> Hashtbl.fold (fun _ p ok -> ok && p.done_) state.(s) true)
      all_participants
  in
  let region_correct =
    converged
    && List.for_all (fun s -> view.(s) = truth) all_participants
  in
  if obs.Obs.Sink.enabled then
    Obs.Metrics.Counter.set c_participants (List.length all_participants);
  {
    converged;
    participants = List.length all_participants;
    total_switches = n;
    messages = !messages;
    elapsed = !last_done;
    region_correct;
  }
