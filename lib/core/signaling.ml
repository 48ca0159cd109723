type params = {
  proc_delay : Netsim.Time.t;
  cell_time : Netsim.Time.t;
  crossbar_delay : Netsim.Time.t;
  data_rate : float;
  data_cells : int;
}

let default_params =
  {
    proc_delay = Netsim.Time.us 100;
    cell_time = Netsim.Time.ns 681;
    crossbar_delay = Netsim.Time.us 2;
    data_rate = 1.0;
    data_cells = 200;
  }

type outcome = {
  setup_time_us : float;
  first_data_latency_us : float;
  delivered : int;
  in_order : bool;
  max_buffered_awaiting_entry : int;
  dropped : int;
  setup_completed : bool;
}

let setup_with_data ?(fail_at = []) net ~src_host ~dst_host p =
  if p.data_rate <= 0.0 || p.data_rate > 1.0 then
    invalid_arg "Signaling.setup_with_data: bad rate";
  match Network.find_route net ~src_host ~dst_host with
  | Error e -> Error e
  | Ok (switches, links) ->
    let g = Network.graph net in
    let k = List.length switches in
    let links = Array.of_list links in
    let latency j = (Topo.Graph.link g links.(j)).Topo.Graph.latency in
    let engine = Netsim.Engine.create () in
    (* Scheduled mid-crawl link deaths, applied on this run's own
       timeline and undone afterwards (only links we actually
       killed). *)
    let we_failed = ref [] in
    List.iter
      (fun (at, lid) ->
        Netsim.Engine.post_at engine ~at (fun () ->
            if Topo.Graph.link_working g lid then begin
              Topo.Graph.fail_link g lid;
              we_failed := lid :: !we_failed
            end))
      fail_at;
    let dropped = ref 0 in
    (* Per switch position 1..k: is the table entry installed, and
       the backlog of data cells awaiting it. *)
    let installed = Array.make (k + 1) false in
    let backlog = Array.init (k + 1) (fun _ -> Queue.create ()) in
    let max_backlog = ref 0 in
    let setup_done = ref 0 in
    let delivered = ref 0 in
    let last_seq = ref (-1) in
    let in_order = ref true in
    let first_data_latency = ref nan in
    let emitted = Array.make p.data_cells 0 in
    (* Forward data cell [seq] out of position j (0 = source host)
       over link j; it reaches position j+1 or the sink. Each link
       serializes cells in call order, which keeps a drained backlog
       ahead of cells that arrive while it drains. *)
    let next_free = Array.make (k + 1) 0 in
    let rec forward j seq =
      if not (Topo.Graph.link_working g links.(j)) then incr dropped
        (* The outgoing link is dead at departure: the cell is lost
           on the floor, exactly what the lifecycle layer's
           timeout/crankback machinery exists to recover from. *)
      else begin
      let now = Netsim.Engine.now engine in
      let start = max now next_free.(j) in
      next_free.(j) <- start + p.cell_time;
      let arrive_at =
        start + p.cell_time + latency j
        + if j >= 1 then p.crossbar_delay else 0
      in
      Netsim.Engine.post_at engine ~at:arrive_at (fun () ->
          if j = k then begin
            (* Destination host. *)
            incr delivered;
            if seq <= !last_seq then in_order := false;
            last_seq := max !last_seq seq;
            if seq = 0 then
              first_data_latency :=
                Netsim.Time.to_us (Netsim.Engine.now engine - emitted.(0))
          end
          else if installed.(j + 1) then forward (j + 1) seq
          else begin
            Queue.add seq backlog.(j + 1);
            let b = Queue.length backlog.(j + 1) in
            if b > !max_backlog then max_backlog := b
          end)
      end
    in
    (* The setup cell: software processing at each switch installs
       the entry and releases any backlog, in order, at link rate. *)
    let rec setup_hop j =
      if not (Topo.Graph.link_working g links.(j - 1)) then ()
        (* Setup cell swallowed by a dead link: the crawl stalls and
           [setup_completed] stays false. Cells already buffered at
           later hops stay buffered — the switch holds them until a
           table entry arrives that never will. *)
      else
      let transit = p.cell_time + latency (j - 1) in
      Netsim.Engine.post engine ~delay:transit (fun () ->
          Netsim.Engine.post engine ~delay:p.proc_delay (fun () ->
              installed.(j) <- true;
              setup_done := Netsim.Engine.now engine;
              while not (Queue.is_empty backlog.(j)) do
                (* Serialization inside [forward] spaces the
                   drained cells one cell time apart. *)
                forward j (Queue.pop backlog.(j))
              done;
              if j < k then setup_hop (j + 1)))
    in
    setup_hop 1;
    (* Data cells follow immediately at the source's rate. *)
    let gap =
      max 1
        (int_of_float
           (Float.round (float_of_int p.cell_time /. p.data_rate)))
    in
    for seq = 0 to p.data_cells - 1 do
      let at = p.cell_time + (seq * gap) in
      emitted.(seq) <- at;
      Netsim.Engine.post_at engine ~at (fun () -> forward 0 seq)
    done;
    Netsim.Engine.run engine;
    List.iter (Topo.Graph.restore_link g) !we_failed;
    Ok
      {
        setup_time_us = Netsim.Time.to_us !setup_done;
        first_data_latency_us = !first_data_latency;
        delivered = !delivered;
        in_order = !in_order;
        max_buffered_awaiting_entry = !max_backlog;
        dropped = !dropped;
        setup_completed = installed.(k);
      }
