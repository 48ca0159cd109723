type traffic_class =
  | Best_effort
  | Guaranteed of int

type vc = {
  vc_id : int;
  src_host : int;
  dst_host : int;
  cls : traffic_class;
  mutable switches : int list;
  mutable links : int list;
  mutable paged_out : bool;
}

type t = {
  graph : Topo.Graph.t;
  frame : int;
  mutable next_vc : int;
  vcs : (int, vc) Hashtbl.t;
  (* tables.(s): vc_id -> (in_link, out_link) at switch s *)
  tables : (int, int * int) Hashtbl.t array;
  schedules : Frame.Schedule.t array;
}

let create ?(frame = 1024) graph =
  let n = Topo.Graph.switch_count graph in
  {
    graph;
    frame;
    next_vc = 1;
    vcs = Hashtbl.create 64;
    tables = Array.init n (fun _ -> Hashtbl.create 16);
    schedules =
      Array.init n (fun _ ->
          Frame.Schedule.create ~n:(Topo.Graph.ports_per_switch graph) ~frame);
  }

let graph t = t.graph
let frame_length t = t.frame
let switch_schedule t s = t.schedules.(s)

let host_attachment t h =
  let lid = Topo.Graph.first_host_link t.graph h in
  if lid < 0 then Error (Printf.sprintf "host %d has no working attachment" h)
  else
    match Topo.Graph.link t.graph lid with
    | { Topo.Graph.a = { node = Topo.Graph.Switch s; _ }; _ }
    | { Topo.Graph.b = { node = Topo.Graph.Switch s; _ }; _ } ->
      Ok (s, lid)
    | _ -> assert false (* first_host_link returns switch attachments *)

let links_of_switch_path t ~src_host ~dst_host switches =
  match (host_attachment t src_host, host_attachment t dst_host) with
  | Error e, _ | _, Error e -> Error e
  | Ok (first, src_link), Ok (last, dst_link) ->
    (match switches with
     | [] -> Error "empty switch path"
     | s0 :: _ ->
       if s0 <> first then Error "path does not start at source attachment"
       else if List.nth switches (List.length switches - 1) <> last then
         Error "path does not end at destination attachment"
       else
         (match Topo.Paths.links_of_switches t.graph switches ~tail:[ dst_link ] with
          | Error (a, b) ->
            Error (Printf.sprintf "switches %d and %d not adjacent" a b)
          | Ok links -> Ok (src_link :: links)))

let route_between t ~src_host ~dst_host search =
  match (host_attachment t src_host, host_attachment t dst_host) with
  | Error e, _ | _, Error e -> Error e
  | Ok (a, src_link), Ok (b, dst_link) ->
    (match search ~src:a ~dst:b ~tail:[ dst_link ] with
     | Some (switches, links) -> Ok (switches, src_link :: links)
     | None -> Error (Printf.sprintf "switches %d and %d are partitioned" a b))

let find_route t ~src_host ~dst_host =
  route_between t ~src_host ~dst_host (Topo.Paths.route_links t.graph)

(* Pair each switch on the path with its incoming and outgoing link. *)
let table_entries vc =
  let rec walk links switches acc =
    match (links, switches) with
    | in_link :: (out_link :: _ as rest_links), s :: rest_switches ->
      walk rest_links rest_switches ((s, (in_link, out_link)) :: acc)
    | _ -> List.rev acc
  in
  walk vc.links vc.switches []

(* The same pairing without building it: [f x y s in_link out_link] at
   each hop. [f] takes its context as [x] and [y] rather than
   capturing it, so a closed [f] makes the walk allocate nothing. *)
let rec walk_hops f x y links switches =
  match (links, switches) with
  | in_link :: (out_link :: _ as links), s :: switches ->
    f x y s in_link out_link;
    walk_hops f x y links switches
  | _ -> ()

let iter_hops f x y vc = walk_hops f x y vc.links vc.switches

let install_hop t vc ~switch ~in_link ~out_link =
  Hashtbl.replace t.tables.(switch) vc.vc_id (in_link, out_link)

let set_entry t vc s in_link out_link =
  install_hop t vc ~switch:s ~in_link ~out_link

let drop_entry t vc s _ _ = Hashtbl.remove t.tables.(s) vc.vc_id
let install t vc = iter_hops set_entry t vc vc
let uninstall t vc = iter_hops drop_entry t vc vc

let setup_best_effort t ~src_host ~dst_host =
  match find_route t ~src_host ~dst_host with
  | Error e -> Error e
  | Ok (switches, links) ->
    let vc =
      {
        vc_id = t.next_vc;
        src_host;
        dst_host;
        cls = Best_effort;
        switches;
        links;
        paged_out = false;
      }
    in
    t.next_vc <- t.next_vc + 1;
    Hashtbl.add t.vcs vc.vc_id vc;
    install t vc;
    Ok vc

let register_best_effort t ~src_host ~dst_host =
  let vc =
    {
      vc_id = t.next_vc;
      src_host;
      dst_host;
      cls = Best_effort;
      switches = [];
      links = [];
      paged_out = true;
    }
  in
  t.next_vc <- t.next_vc + 1;
  Hashtbl.add t.vcs vc.vc_id vc;
  vc

let assign_route _t vc ~switches ~links =
  vc.switches <- switches;
  vc.links <- links;
  vc.paged_out <- false

let uninstall_entry t vc ~switch = Hashtbl.remove t.tables.(switch) vc.vc_id
let remove_entry t ~switch ~vc_id = Hashtbl.remove t.tables.(switch) vc_id

let table_bindings t s =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tables.(s) [])

let register_guaranteed ?install:(install_now = true) t ~src_host ~dst_host
    ~cells ~switches ~links =
  let vc =
    {
      vc_id = t.next_vc;
      src_host;
      dst_host;
      cls = Guaranteed cells;
      switches;
      links;
      paged_out = false;
    }
  in
  t.next_vc <- t.next_vc + 1;
  Hashtbl.add t.vcs vc.vc_id vc;
  if install_now then install t vc;
  vc

(* Port on switch [s] at which link [lid] terminates. A match on the
   constructor, not [node = Switch s], which would build the variant
   and call the polymorphic compare. *)
let port_at t s lid =
  let { Topo.Graph.a; b; _ } = Topo.Graph.link t.graph lid in
  match (a.node, b.node) with
  | Topo.Graph.Switch x, _ when x = s -> a.port
  | _, Topo.Graph.Switch y when y = s -> b.port
  | _ -> invalid_arg "Network.port_at: link not at switch"

exception Missing_cell of { switch : int; input : int; output : int }

let remove_cells t cells s in_link out_link =
  let input = port_at t s in_link and output = port_at t s out_link in
  for _ = 1 to cells do
    if not (Frame.Schedule.remove_cell t.schedules.(s) ~input ~output) then
      raise (Missing_cell { switch = s; input; output })
  done

let remove_schedule_entries t vc cells = iter_hops remove_cells t cells vc

let teardown t vc =
  uninstall t vc;
  (match vc.cls with
   | Guaranteed cells -> remove_schedule_entries t vc cells
   | Best_effort -> ());
  Hashtbl.remove t.vcs vc.vc_id

let vc_count t = Hashtbl.length t.vcs
let find_vc t id = Hashtbl.find_opt t.vcs id

let iter_vcs t f = Hashtbl.iter (fun _ vc -> f vc) t.vcs

let set_route t vc ~switches ~links =
  match vc.cls with
  | Guaranteed _ -> Error "guaranteed circuits are moved by bandwidth central"
  | Best_effort ->
    if not (List.for_all (Topo.Graph.link_working t.graph) links) then
      Error "path crosses a dead link"
    else begin
      uninstall t vc;
      vc.switches <- switches;
      vc.links <- links;
      install t vc;
      Ok ()
    end

let next_hop t ~switch ~vc_id =
  match Hashtbl.find_opt t.tables.(switch) vc_id with
  | Some (in_link, out_link) -> Some (out_link, in_link)
  | None -> None

let reroute t vc =
  match vc.cls with
  | Guaranteed _ -> Error "guaranteed circuits must be rerouted by bandwidth central"
  | Best_effort ->
    (match find_route t ~src_host:vc.src_host ~dst_host:vc.dst_host with
     | Error e -> Error e
     | Ok (switches, links) -> set_route t vc ~switches ~links)

let page_out t vc =
  (match vc.cls with
   | Guaranteed _ ->
     invalid_arg "Network.page_out: guaranteed circuits hold schedule slots"
   | Best_effort -> ());
  if not vc.paged_out then begin
    uninstall t vc;
    vc.paged_out <- true
  end

(* Snapshots. Canonical by construction: circuits are written in
   ascending vc-id order, table bindings via the already-sorted
   [table_bindings], and schedules as sparse (slot, input, output)
   triples in (slot, input) order — so equal network state always
   encodes to equal bytes regardless of Hashtbl history. The graph is
   snapshotted separately ({!Topo.Graph.save}) and supplied to
   [restore]; reservations live in [Bandwidth_central]. *)

let snapshot_section = "an2-network"
let snapshot_version = 1

module Snap = Netsim.Snapshot

let sorted_vcs t =
  List.sort
    (fun a b -> compare a.vc_id b.vc_id)
    (Hashtbl.fold (fun _ vc acc -> vc :: acc) t.vcs [])

let save t =
  Snap.make ~name:snapshot_section ~version:snapshot_version (fun w ->
      let n = Array.length t.tables in
      Snap.W.int w t.frame;
      Snap.W.int w t.next_vc;
      Snap.W.int w n;
      let vcs = sorted_vcs t in
      Snap.W.int w (List.length vcs);
      List.iter
        (fun vc ->
          Snap.W.int w vc.vc_id;
          Snap.W.int w vc.src_host;
          Snap.W.int w vc.dst_host;
          (match vc.cls with
           | Best_effort -> Snap.W.int w (-1)
           | Guaranteed cells -> Snap.W.int w cells);
          Snap.W.bool w vc.paged_out;
          Snap.W.int_list w vc.switches;
          Snap.W.int_list w vc.links)
        vcs;
      for s = 0 to n - 1 do
        let bindings = table_bindings t s in
        Snap.W.int w (List.length bindings);
        List.iter
          (fun (vc_id, (in_link, out_link)) ->
            Snap.W.int w vc_id;
            Snap.W.int w in_link;
            Snap.W.int w out_link)
          bindings
      done;
      for s = 0 to n - 1 do
        let sched = t.schedules.(s) in
        let cells = Frame.Schedule.cell_count sched in
        Snap.W.int w cells;
        if cells > 0 then
          for slot = 0 to Frame.Schedule.frame sched - 1 do
            for input = 0 to Frame.Schedule.n sched - 1 do
              let output = Frame.Schedule.output_at sched ~slot ~input in
              if output >= 0 then begin
                Snap.W.int w slot;
                Snap.W.int w input;
                Snap.W.int w output
              end
            done
          done
      done)

let restore ~graph section =
  Snap.read section ~name:snapshot_section ~version:snapshot_version (fun r ->
      let frame = Snap.R.int r in
      let next_vc = Snap.R.int r in
      let n = Snap.R.int r in
      if frame <= 0 || next_vc < 1 then
        Snap.R.corrupt "Network: bad frame/next_vc";
      if n <> Topo.Graph.switch_count graph then
        Snap.R.corrupt "Network: switch count does not match graph";
      let t = create ~frame graph in
      t.next_vc <- next_vc;
      let n_vcs = Snap.R.int r in
      if n_vcs < 0 then Snap.R.corrupt "Network: negative vc count";
      let prev_id = ref 0 in
      for _ = 1 to n_vcs do
        let vc_id = Snap.R.int r in
        let src_host = Snap.R.int r in
        let dst_host = Snap.R.int r in
        let cls_code = Snap.R.int r in
        let paged_out = Snap.R.bool r in
        let switches = Snap.R.int_list r in
        let links = Snap.R.int_list r in
        if vc_id <= !prev_id || vc_id >= next_vc then
          Snap.R.corrupt "Network: vc ids not ascending below next_vc";
        prev_id := vc_id;
        let cls =
          if cls_code = -1 then Best_effort
          else if cls_code >= 0 then Guaranteed cls_code
          else Snap.R.corrupt "Network: bad traffic class"
        in
        List.iter
          (fun lid ->
            if lid < 0 || lid >= Topo.Graph.link_count graph then
              Snap.R.corrupt "Network: vc link out of range")
          links;
        Hashtbl.add t.vcs vc_id
          { vc_id; src_host; dst_host; cls; switches; links; paged_out }
      done;
      for s = 0 to n - 1 do
        let n_bindings = Snap.R.int r in
        if n_bindings < 0 then Snap.R.corrupt "Network: negative table size";
        for _ = 1 to n_bindings do
          let vc_id = Snap.R.int r in
          let in_link = Snap.R.int r in
          let out_link = Snap.R.int r in
          if not (Hashtbl.mem t.vcs vc_id) then
            Snap.R.corrupt "Network: table entry for unknown circuit";
          Hashtbl.replace t.tables.(s) vc_id (in_link, out_link)
        done
      done;
      for s = 0 to n - 1 do
        let n_cells = Snap.R.int r in
        if n_cells < 0 then Snap.R.corrupt "Network: negative schedule size";
        for _ = 1 to n_cells do
          let slot = Snap.R.int r in
          let input = Snap.R.int r in
          let output = Snap.R.int r in
          try Frame.Schedule.place t.schedules.(s) ~slot ~input ~output
          with Invalid_argument _ | Failure _ ->
            Snap.R.corrupt "Network: inadmissible schedule entry"
        done
      done;
      t)

let page_in t vc =
  if not vc.paged_out then Ok ()
  else
    (* Recreating the circuit may pick a fresh route, exactly as a new
       setup cell would. *)
    match find_route t ~src_host:vc.src_host ~dst_host:vc.dst_host with
    | Error e -> Error e
    | Ok (switches, links) ->
      vc.switches <- switches;
      vc.links <- links;
      vc.paged_out <- false;
      install t vc;
      Ok ()
