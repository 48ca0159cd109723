type outcome = {
  converged : bool;
  participants : int;
  total_switches : int;
  messages : int;
  elapsed : Netsim.Time.t;
  region_correct : bool;
}

(* Whether link [lid] has an end at a member: a switch with a budget. *)
let touches g budget lid =
  let at = function Topo.Graph.Switch s -> budget.(s) >= 0 | _ -> false in
  let l = Topo.Graph.link g lid in
  at l.Topo.Graph.a.node || at l.Topo.Graph.b.node

(* One scoped configuration: a Proto node per switch of its own, so
   the endpoints' configurations never see each other's tags and a
   switch may take part in both. [budget] is the driver-held hop
   budget of each switch that joined, its members (-1 for the rest).
   [memo] is the configuration's last merge: (previous view, payload,
   merged view). *)
type config = {
  nodes : Proto.node array;
  budget : int array;
  mutable memo : (int array * int array * int array) option;
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
  let prior = Runner.working_edges g ~at:(fun _ -> true) in
  Topo.Graph.fail_link g fail;
  let truth = Runner.working_edges g ~at:(fun _ -> true) in
  let n = Topo.Graph.switch_count g in
  let engine = Netsim.Engine.create ~obs () in
  let messages = ref 0 in
  let c_messages = Obs.Sink.counter obs "reconfig.local.messages" in
  let c_participants = Obs.Sink.counter obs "reconfig.local.participants" in
  (* Merged topology view per switch, initialized to the prior one. *)
  let view = Array.make n prior in
  let last_done = ref 0 in
  (* The merge: keep the previous view's links that touch no member of
     [c], then add the collected set, which holds every member's
     adjacency. Both steps are linear in the view. The result depends
     only on the two arrays and [c]'s budgets, which are final before
     the first [Completed]: the root completes only once every
     invitation has been answered. Members that held the same view get
     the root's one payload array, so the one-entry memo, keyed by [==]
     on both arrays (never mutated, so [==] ones are [=]), merges each
     such pair once. *)
  let merge c prev edges =
    match c.memo with
    | Some (p, e, merged) when p == prev && e == edges -> merged
    | _ ->
      let kept = Array.make (Array.length prev) 0 and k = ref 0 in
      Array.iter
        (fun lid ->
          if not (touches g c.budget lid) then begin
            kept.(!k) <- lid;
            incr k
          end)
        prev;
      let merged = Proto.union (Array.sub kept 0 !k) edges in
      c.memo <- Some (prev, edges, merged);
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
      local_edges = (fun () -> Runner.switch_edges g s);
    }
  in
  let rec perform c s actions =
    List.iter
      (function
        | Proto.Send { dst; msg } -> send c ~src:s ~dst msg
        | Proto.Completed _ ->
          let _, edges = Option.get (Proto.completed c.nodes.(s)) in
          view.(s) <- merge c view.(s) edges;
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
           c.budget.(dst) <- c.budget.(src) - 1
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
        memo = None;
      }
    in
    c.budget.(s) <- radius;
    perform c s (Proto.initiate c.nodes.(s) (env c s));
    c
  in
  let configs = List.map start initiators in
  Netsim.Engine.run engine;
  (* Evaluate. *)
  let members c = List.filter (fun s -> c.budget.(s) >= 0) (List.init n Fun.id) in
  let converged =
    List.for_all
      (fun c ->
        List.for_all (fun s -> Proto.completed c.nodes.(s) <> None) (members c))
      configs
  in
  let participants = List.sort_uniq compare (List.concat_map members configs) in
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
