let is_switch_link g lid =
  let l = Topo.Graph.link g lid in
  match (l.Topo.Graph.a.node, l.Topo.Graph.b.node) with
  | Topo.Graph.Switch _, Topo.Graph.Switch _ -> true
  | _ -> false

let working g lid = (Topo.Graph.link g lid).Topo.Graph.state = Topo.Graph.Working

let load_table net =
  let loads =
    Hashtbl.create (max 64 (Topo.Graph.link_count (Network.graph net)))
  in
  Network.iter_vcs net (fun vc ->
      match vc.Network.cls with
      | Network.Guaranteed _ -> ()
      | Network.Best_effort ->
        if not vc.Network.paged_out then
          List.iter
            (fun lid ->
              Hashtbl.replace loads lid
                (1 + Option.value ~default:0 (Hashtbl.find_opt loads lid)))
            vc.Network.links);
  loads

let link_loads net =
  let g = Network.graph net in
  let loads = load_table net in
  List.filter_map
    (fun (l : Topo.Graph.link) ->
      if l.state = Topo.Graph.Working then
        Some
          ( l.link_id,
            Option.value ~default:0 (Hashtbl.find_opt loads l.link_id) )
      else None)
    (Topo.Graph.links g)

type stats = {
  max_load : int;
  mean_load : float;
  stddev : float;
}

let load_stats net =
  let g = Network.graph net in
  let summary = Netsim.Stats.Summary.create () in
  let max_load = ref 0 in
  List.iter
    (fun (lid, load) ->
      if is_switch_link g lid then begin
        Netsim.Stats.Summary.add summary (float_of_int load);
        if load > !max_load then max_load := load
      end)
    (link_loads net);
  {
    max_load = !max_load;
    mean_load = Netsim.Stats.Summary.mean summary;
    stddev = Netsim.Stats.Summary.stddev summary;
  }

let rebalance ?(max_stretch = 1) net =
  let g = Network.graph net in
  (* a safety valve: at most ten moves per circuit *)
  let max_moves = 10 * Network.vc_count net in
  let moves = ref 0 in
  let continue = ref true in
  while !continue && !moves < max_moves do
    continue := false;
    let loads = load_table net in
    let load lid = Option.value ~default:0 (Hashtbl.find_opt loads lid) in
    (* Hottest working switch-to-switch link. *)
    let hot = ref None in
    Hashtbl.iter
      (fun lid l ->
        if is_switch_link g lid && working g lid then
          match !hot with
          | Some (_, best) when best >= l -> ()
          | _ -> hot := Some (lid, l))
      loads;
    match !hot with
    | None -> ()
    | Some (hot_link, hot_load) when hot_load > 1 ->
      (* Try to move one circuit crossing the hot link. *)
      let moved = ref false in
      Network.iter_vcs net (fun vc ->
          if
            (not !moved)
            && vc.Network.cls = Network.Best_effort
            && (not vc.Network.paged_out)
            && List.mem hot_link vc.Network.links
          then begin
            let src_host = vc.Network.src_host and dst_host = vc.Network.dst_host in
            match
              ( Network.route_between net ~src_host ~dst_host
                  (Topo.Paths.route_links ~usable:(fun lid -> lid <> hot_link) g),
                Network.find_route net ~src_host ~dst_host )
            with
            | Ok (alt, links), Ok (shortest, _)
              when List.length alt <= List.length shortest + max_stretch ->
              (* The detour must strictly improve this circuit's
                 bottleneck: every new switch link must end up cooler
                 than the hot link is now. *)
              let worst_after =
                List.fold_left
                  (fun acc lid ->
                    if not (is_switch_link g lid) then acc
                    else if List.mem lid vc.Network.links then max acc (load lid)
                    else max acc (load lid + 1))
                  0 links
              in
              if worst_after < hot_load then begin
                match Network.set_route net vc ~switches:alt ~links with
                | Ok () ->
                  moved := true;
                  incr moves
                | Error _ -> ()
              end
            | _ -> ()
          end);
      if !moved then continue := true
    | Some _ -> ()
  done;
  !moves
