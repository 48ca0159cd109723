type t = {
  mc_id : int;
  source_host : int;
  dest_hosts : int list;
  root : int;
  tree_links : int list;
  source_link : int;
  host_links : int list;
  table : (int, int * int list) Hashtbl.t;
}

let next_id = ref 1

(* A group names each destination once and never the source; either
   slip would count a delivery twice in the tree and unicast costs. *)
let check_group ~source_host dest_hosts =
  let rec repeated = function
    | a :: (b :: _ as rest) -> if a = b then Some a else repeated rest
    | _ -> None
  in
  if List.mem source_host dest_hosts then
    Error (Printf.sprintf "source host %d cannot be a destination" source_host)
  else
    match repeated (List.sort compare dest_hosts) with
    | Some h -> Error (Printf.sprintf "destination host %d is listed twice" h)
    | None -> Ok ()

let build net ~source_host ~dest_hosts =
  if dest_hosts = [] then Error "empty destination group"
  else
    match check_group ~source_host dest_hosts with
    | Error e -> Error e
    | Ok () -> begin
    let g = Network.graph net in
    match Network.host_attachment net source_host with
    | Error e -> Error e
    | Ok (root, src_link) ->
      (* Attachments of every destination. *)
      let rec attachments acc = function
        | [] -> Ok (List.rev acc)
        | h :: rest ->
          (match Network.host_attachment net h with
           | Ok (s, lid) -> attachments ((h, s, lid) :: acc) rest
           | Error e -> Error e)
      in
      (match attachments [] dest_hosts with
       | Error e -> Error e
       | Ok dests ->
         (* Union of shortest paths root -> each destination switch,
            taken from one BFS tree so the union is itself a tree. *)
         let tree = Topo.Spanning.bfs g ~root in
         let unreachable =
           List.filter (fun (_, s, _) -> tree.Topo.Spanning.depth.(s) < 0) dests
         in
         if unreachable <> [] then
           Error
             (Printf.sprintf "host %d unreachable from switch %d"
                (match unreachable with (h, _, _) :: _ -> h | [] -> -1)
                root)
         else begin
           (* Mark the switches on any root->dest path. *)
           let n = Topo.Graph.switch_count g in
           let in_tree = Array.make n false in
           List.iter
             (fun (_, s, _) ->
               let rec mark s =
                 if not in_tree.(s) then begin
                   in_tree.(s) <- true;
                   if s <> root then mark tree.Topo.Spanning.parent.(s)
                 end
               in
               mark s)
             dests;
           (* Forwarding entries: children links + local destination
              host links. *)
           let table = Hashtbl.create 16 in
           let tree_links = ref [] in
           let add_out s lid =
             let in_link =
               if s = root then src_link else tree.Topo.Spanning.parent_link.(s)
             in
             match Hashtbl.find_opt table s with
             | Some (il, outs) ->
               assert (il = in_link);
               if not (List.mem lid outs) then
                 Hashtbl.replace table s (il, lid :: outs)
             | None -> Hashtbl.add table s (in_link, [ lid ])
           in
           for s = 0 to n - 1 do
             if in_tree.(s) && s <> root then begin
               let parent = tree.Topo.Spanning.parent.(s) in
               let lid = tree.Topo.Spanning.parent_link.(s) in
               tree_links := lid :: !tree_links;
               add_out parent lid
             end
           done;
           List.iter (fun (_, s, lid) -> add_out s lid) dests;
           (* Switches with no outputs (cannot happen: every in-tree
              switch either has a child or hosts a destination). *)
           let mc =
             {
               mc_id = !next_id;
               source_host;
               dest_hosts;
               root;
               tree_links = List.sort_uniq compare !tree_links;
               source_link = src_link;
               host_links =
                 src_link :: List.map (fun (_, _, lid) -> lid) dests
                 |> List.sort_uniq compare;
               table;
             }
           in
           incr next_id;
           Ok mc
         end)
  end

let link_transmissions mc =
  List.length mc.tree_links + List.length mc.host_links

let unicast_transmissions net ~source_host ~dest_hosts =
  match
    Result.bind (check_group ~source_host dest_hosts) (fun () ->
        Network.host_attachment net source_host)
  with
  | Error e -> Error e
  | Ok (root, _) ->
    let g = Network.graph net in
    let dist = Topo.Paths.distances g ~src:root in
    let rec total acc = function
      | [] -> Ok acc
      | h :: rest ->
        (match Network.host_attachment net h with
         | Error e -> Error e
         | Ok (s, _) ->
           if dist.(s) < 0 then Error (Printf.sprintf "host %d unreachable" h)
           else
             (* source host link + switch hops + destination host link *)
             total (acc + dist.(s) + 2) rest)
    in
    total 0 dest_hosts

let rebuild_after_failure net mc =
  build net ~source_host:mc.source_host ~dest_hosts:mc.dest_hosts

type delivery = {
  per_dest_latency_us : (int * float) list;
  delivered_all : bool;
  cells_sent : int;
  link_cell_crossings : int;
}

let simulate net mc ~rate ~duration =
  if rate <= 0.0 || rate > 1.0 then invalid_arg "Multicast.simulate: bad rate";
  let g = Network.graph net in
  let engine = Netsim.Engine.create () in
  let cell_time = Netsim.Time.ns 681 in
  let crossbar = Netsim.Time.us 2 in
  let gap = int_of_float (Float.round (float_of_int cell_time /. rate)) in
  let latency lid = (Topo.Graph.link g lid).Topo.Graph.latency in
  let sent = ref 0 in
  let crossings = ref 0 in
  let received = Hashtbl.create 16 in
  let lat = Hashtbl.create 16 in
  List.iter
    (fun h ->
      Hashtbl.add received h 0;
      Hashtbl.add lat h (Netsim.Stats.Summary.create ()))
    mc.dest_hosts;
  (* Which host hangs off a given host link. *)
  let host_of_link lid =
    let l = Topo.Graph.link g lid in
    match (l.Topo.Graph.a.node, l.Topo.Graph.b.node) with
    | Topo.Graph.Host h, _ | _, Topo.Graph.Host h -> Some h
    | _ -> None
  in
  let rec forward_from_switch s born =
    match Hashtbl.find_opt mc.table s with
    | None -> ()
    | Some (_, outs) ->
      List.iter
        (fun lid ->
          incr crossings;
          let transit = cell_time + latency lid in
          Netsim.Engine.post engine ~delay:transit (fun () ->
              match host_of_link lid with
              | Some h ->
                Hashtbl.replace received h (Hashtbl.find received h + 1);
                Netsim.Stats.Summary.add (Hashtbl.find lat h)
                  (Netsim.Time.to_us (Netsim.Engine.now engine - born))
              | None ->
                let l = Topo.Graph.link g lid in
                let next =
                  match (l.Topo.Graph.a.node, l.Topo.Graph.b.node) with
                  | Topo.Graph.Switch a, Topo.Graph.Switch b ->
                    if a = s then b else a
                  | _ -> assert false
                in
                Netsim.Engine.post engine ~delay:crossbar (fun () ->
                    forward_from_switch next born)))
        outs
  in
  (* Source: host link into the root, then down the tree. *)
  let src_link = mc.source_link in
  let rec emit () =
    if Netsim.Engine.now engine < duration then begin
      incr sent;
      incr crossings;
      let born = Netsim.Engine.now engine in
      Netsim.Engine.post engine
        ~delay:(cell_time + latency src_link + crossbar)
        (fun () -> forward_from_switch mc.root born);
      Netsim.Engine.post engine ~delay:gap emit
 end
in
emit ();
  (* Run to quiescence: emission stops at [duration], then in-flight
     cells land. *)
  Netsim.Engine.run engine;
  let delivered_all =
    List.for_all (fun h -> Hashtbl.find received h = !sent) mc.dest_hosts
  in
  {
    per_dest_latency_us =
      List.map
        (fun h -> (h, Netsim.Stats.Summary.mean (Hashtbl.find lat h)))
        mc.dest_hosts;
    delivered_all;
    cells_sent = !sent;
    link_cell_crossings = !crossings;
  }
