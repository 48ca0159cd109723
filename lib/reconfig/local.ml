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
  let acc = ref [] in
  for s = 0 to Topo.Graph.switch_count g - 1 do
    acc := Runner.add_switch_edges g s !acc
  done;
  List.sort_uniq Proto.compare_edge (List.map Proto.normalize_edge !acc)

(* One scoped configuration: a Proto node per switch of its own, so
   the endpoints' configurations never see each other's tags and a
   switch may take part in both. [budget] is the driver-held hop
   budget of each switch that joined (-1 for the rest); [members]
   lists those switches. *)
type config = {
  nodes : Proto.node array;
  budget : int array;
  mutable members : int list;
}

let run_after_failure ?(proc_delay = Netsim.Time.us 100) ?(radius = 2)
    ?(scope = fun (_ : int) -> true) ?(obs = Obs.Sink.null) g ~fail =
  (* A negative budget never reaches 0: the repair would flood
     everything. *)
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
  (* Merged topology view per switch, initialized to the prior one. *)
  let view = Array.make n prior in
  let last_done = ref 0 in
  (* The merge: re-derive every member's adjacency from the collected
     edges, keep everything else from the previous view. Membership
     tests go through a scratch bool array so one merge is
     O(view + members), not O(view * members) — at fat-tree scale the
     view is the whole fabric and the naive product dominates the
     run. The last merge is
     memoized on the physical identity of its three inputs: members
     that start from the same view and merge the same configuration
     share one sorted result instead of each re-sorting the
     whole-fabric view. The engine is single-threaded, so one scratch
     is safe. *)
  let in_members = Array.make n false in
  let last_merge = ref None in
  let merge prev edges members =
    match !last_merge with
    | Some (p, e, m, merged) when p == prev && e == edges && m == members ->
      merged
    | _ ->
      List.iter (fun m -> in_members.(m) <- true) members;
      let touched = function
        | Proto.Sw_edge (x, y) -> in_members.(x) || in_members.(y)
        | Proto.Host_edge (x, _) -> in_members.(x)
      in
      let merged =
        List.sort_uniq Proto.compare_edge
          (List.filter (fun e -> not (touched e)) prev
          @ List.map Proto.normalize_edge edges)
      in
      List.iter (fun m -> in_members.(m) <- false) members;
      last_merge := Some (prev, edges, members, merged);
      merged
  in
  (* A switch at budget 0 reports as a boundary leaf: with no
     neighbours to invite, Proto finishes its collection at once. *)
  let env c s =
    {
      Proto.neighbors =
        (fun () ->
          if c.budget.(s) = 0 then [||]
          else begin
            let acc = ref [] in
            Topo.Graph.iter_switch_neighbors g s (fun s' _ ->
                if scope s' then acc := s' :: !acc);
            Array.of_list (List.rev !acc)
          end);
      local_edges = (fun () -> List.rev (Runner.add_switch_edges g s []));
    }
  in
  let rec perform c s actions =
    List.iter
      (function
        | Proto.Send { dst; msg } -> send c ~src:s ~dst msg
        | Proto.Completed _ ->
          let _, edges = Option.get (Proto.completed c.nodes.(s)) in
          view.(s) <- merge view.(s) edges c.members;
          last_done := Netsim.Engine.now engine)
      actions
  and send c ~src ~dst msg =
    (* Invitations go to working neighbours and every other message to
       a switch this one has heard from, so a working link joins them. *)
    let lid = Option.get (Topo.Graph.switch_link g src dst) in
    let lat = (Topo.Graph.link g lid).Topo.Graph.latency in
    Netsim.Engine.post engine ~delay:(lat + proc_delay) (fun () ->
        incr messages;
        if obs.Obs.Sink.enabled then Obs.Metrics.Counter.incr c_messages;
        (match msg with
         | Proto.Invite _ when c.budget.(dst) < 0 ->
           (* [dst] accepts: it joins with one hop less to spend. *)
           c.budget.(dst) <- c.budget.(src) - 1;
           c.members <- dst :: c.members
         | _ -> ());
        perform c dst (Proto.handle c.nodes.(dst) (env c dst) ~from:src msg))
  in
  (* Both endpoints of the failed link detect the change and start
     their own scoped configuration. *)
  let start s =
    let c =
      {
        nodes = Array.init n (fun id -> Proto.create_node ~id);
        budget = Array.make n (-1);
        members = [ s ];
      }
    in
    c.budget.(s) <- radius;
    perform c s (Proto.initiate c.nodes.(s) (env c s));
    c
  in
  let configs = List.map start initiators in
  Netsim.Engine.run engine;
  (* Evaluate. *)
  let converged =
    List.for_all
      (fun c ->
        List.for_all (fun s -> Proto.completed c.nodes.(s) <> None) c.members)
      configs
  in
  let participants =
    List.sort_uniq compare (List.concat_map (fun c -> c.members) configs)
  in
  let region_correct =
    converged && List.for_all (fun s -> view.(s) = truth) participants
  in
  if obs.Obs.Sink.enabled then
    Obs.Metrics.Counter.set c_participants (List.length participants);
  {
    converged;
    participants = List.length participants;
    total_switches = n;
    messages = !messages;
    elapsed = !last_done;
    region_correct;
  }
