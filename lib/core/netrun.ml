type params = {
  cell_time : Netsim.Time.t;
  crossbar_delay : Netsim.Time.t;
  synchronized : bool;
  skew_ppm : int;
  seed : int;
}

let default_params =
  {
    cell_time = Netsim.Time.ns 681;
    crossbar_delay = Netsim.Time.us 2;
    synchronized = false;
    skew_ppm = 100;
    seed = 1;
  }

let be_credits = 64

type source =
  | Cbr of Network.vc
  | Saturated_be of Network.vc
  | Paced_be of Network.vc * float
  | Packets_be of Network.vc * float * int

type vc_stats = {
  sent : int;
  delivered : int;
  dropped : int;
  mean_latency_us : float;
  p99_latency_us : float;
  max_latency_us : float;
  jitter_us : float;
  packets_sent : int;
  packets_delivered : int;
  packet_mean_latency_us : float;
  window_delivered : int array;
}

type event =
  | Fail_link of int
  | Fail_switch of int
  | Reroute_be
  | Reroute_guaranteed of Bandwidth_central.t

type result = {
  per_vc : (int * vc_stats) list;
  max_guaranteed_backlog : int;
  guaranteed_backlog_frames : float;
  dark_circuits : int;
}

type simcell = {
  born : Netsim.Time.t;
  epoch : int;
  payload : Host.cell option;  (* set for packet sources *)
  pstart : Netsim.Time.t;
      (* packet segmentation instant; carried in the cell so the
         destination partition never reads source-side tables *)
}

(* Mutable per-circuit simulation state, addressed by path position:
   position j in 1..k is the j-th switch of the path, entered over
   links.(j - 1) and left over links.(j); position 0 is the source
   host. Paths are simple, so a position names the same buffer a
   (switch, vc) key would. In a partitioned run each field is written
   by exactly one engine partition: source-side counters by the
   partition of the first switch, delivery-side statistics by the
   partition of the last, position j's queue by the partition of its
   switch, link j's credit window by the partition of its upstream
   end; [dropped] has one slot per partition because any switch along
   the path may drop. *)
type circuit = {
  vc : Network.vc;
  is_guaranteed : bool;
  mutable links : int array;  (* l_0 .. l_k; l_0 and l_k are host links *)
  mutable switches : int array;  (* s_1 .. s_k *)
  mutable in_port : int array;  (* position j's crossbar input; -1 at 0 *)
  mutable out_port : int array;  (* position j's crossbar output; -1 at 0 *)
  mutable queues : simcell Queue.t array;  (* cells buffered at position j *)
  mutable credits : Flow.Credit.Upstream.t array;
      (* best-effort upstream window of link j *)
  mutable epoch : int;
  mutable dark : bool;  (* a reroute failed and left the circuit unserved *)
  (* host-side *)
  mutable sent : int;
  mutable delivered : int;
  dropped : int array;  (* cells lost to link/switch failures, per partition *)
  mutable host_backlog : int;  (* paced sources queue cells at the host *)
  latencies : Netsim.Stats.Distribution.t;
  (* Packet sources: controller-level bookkeeping. *)
  mutable packets_sent : int;
  mutable packets_delivered : int;
  packet_latencies : Netsim.Stats.Distribution.t;
  reassembly : Host.Reassembly.t;
  window_delivered : int array;
}

(* A (circuit index, path position) pair packed into one int. *)
let pos_bits = 16
let pos_mask = (1 lsl pos_bits) - 1
let code ci j = (ci lsl pos_bits) lor j

let vc_of_source = function
  | Cbr vc | Saturated_be vc | Paced_be (vc, _) | Packets_be (vc, _, _) -> vc

let run ?(obs = Obs.Sink.null) ?heartbeat ?(partitions = 1) ?(domains = 1) net
    p ~sources ?(events = []) ~duration () =
  if partitions < 1 then invalid_arg "Netrun.run: partitions must be >= 1";
  if domains < 1 then invalid_arg "Netrun.run: domains must be >= 1";
  (let seen = Hashtbl.create 64 in
   List.iter
     (fun src ->
       let id = (vc_of_source src).Network.vc_id in
       if Hashtbl.mem seen id then
         invalid_arg (Printf.sprintf "Netrun.run: two sources on vc %d" id);
       Hashtbl.add seen id ())
     sources);
  let g = Network.graph net in
  let frame = Network.frame_length net in
  let frame_time = frame * p.cell_time in
  let n_switches = Topo.Graph.switch_count g in
  let ports = Topo.Graph.ports_per_switch g in
  (* Switches split across the engines of one cluster (one engine at
     [partitions = 1]), coupled at the minimum cross-partition link
     latency. Mid-run [events] mutate the graph and reroute circuits
     across partition boundaries, which the conservative windows cannot
     express — scenario runs keep a single partition. *)
  let pc =
    Topo.Partition.cluster ?heartbeat ~label:"netrun" ~obs ~horizon:duration g
      ~parts:partitions
  in
  let { Topo.Partition.part; parts; engines; cl; _ } = pc in
  if parts > 1 && events <> [] then
    invalid_arg "Netrun.run: events require partitions = 1";
  (* Schedule [thunk] on partition [dst], [delay] after partition
     [src]'s current instant. Every cross-partition post below rides a
     link latency, which is >= the cluster lookahead by construction. *)
  let post ~src ~dst ~delay thunk =
    Netsim.Cluster.send cl ~src ~dst ~delay thunk
  in
  let c_dark = Obs.Sink.counter obs "netrun.dark_circuits" in
  (* Setup-time randomness (clock phases, skew, initial source offsets)
     comes from one stream drawn single-threadedly here. Run-time
     randomness (PIM, source pacing) must be drawn by the partition
     that owns the drawing component: one partition aliases every
     slot to the same stream — the historical draw order — while a
     multi-partition run gives each switch and each source its own
     seeded stream, making the draws (and the result) a
     pure function of the partition map, never of the domain count. *)
  let rng = Netsim.Rng.create p.seed in
  let pim_rngs =
    if parts = 1 then Array.make n_switches rng
    else
      Array.init n_switches (fun s ->
          Netsim.Rng.create (p.seed + ((s + 1) * 0x9e3779b97f4a7c1)))
  in
  let src_rngs =
    if parts = 1 then Array.of_list (List.map (fun _ -> rng) sources)
    else
      Array.of_list
        (List.mapi
           (fun i _ ->
             Netsim.Rng.create (p.seed + ((i + 1) * 0x2545f4914f6cdd1)))
           sources)
  in
  let fresh_credits k =
    Array.init (k + 1) (fun _ -> Flow.Credit.Upstream.create ~total:be_credits)
  in
  (* Point a circuit at its vc's current path: per-position ports, empty
     queues and fresh credit windows. *)
  let set_path c =
    let vc = c.vc in
    let switches = Array.of_list vc.Network.switches in
    let links = Array.of_list vc.Network.links in
    let k = Array.length switches in
    if k = 0 || Array.length links <> k + 1 then
      invalid_arg (Printf.sprintf "Netrun.run: vc %d has no path" vc.Network.vc_id);
    if k > pos_mask then
      invalid_arg (Printf.sprintf "Netrun.run: vc %d path too long" vc.Network.vc_id);
    Array.iteri
      (fun i s ->
        for i' = i + 1 to k - 1 do
          if switches.(i') = s then
            invalid_arg
              (Printf.sprintf "Netrun.run: vc %d visits switch %d twice"
                 vc.Network.vc_id s)
        done)
      switches;
    let port_of j lid =
      if j = 0 then -1 else Network.port_at net switches.(j - 1) lid
    in
    c.switches <- switches;
    c.links <- links;
    c.in_port <- Array.init (k + 1) (fun j -> port_of j links.(max 0 (j - 1)));
    c.out_port <- Array.init (k + 1) (fun j -> port_of j links.(j));
    c.queues <- Array.init (k + 1) (fun _ -> Queue.create ());
    c.credits <- fresh_credits k
  in
  (* Circuits, in source order. *)
  let circuits =
    Array.of_list
      (List.map
         (fun src ->
           let vc = vc_of_source src in
           let c =
             {
               vc;
               is_guaranteed =
                 (match vc.Network.cls with
                  | Network.Guaranteed _ -> true
                  | Network.Best_effort -> false);
               links = [||];
               switches = [||];
               in_port = [||];
               out_port = [||];
               queues = [||];
               credits = [||];
               epoch = 0;
               dark = false;
               sent = 0;
               delivered = 0;
               dropped = Array.make parts 0;
               host_backlog = 0;
               latencies = Netsim.Stats.Distribution.create ();
               packets_sent = 0;
               packets_delivered = 0;
               packet_latencies = Netsim.Stats.Distribution.create ();
               reassembly = Host.Reassembly.create ();
               window_delivered = Array.make 10 0;
             }
           in
           set_path c;
           c)
         sources)
  in
  let n_be =
    Array.fold_left (fun a c -> if c.is_guaranteed then a else a + 1) 0 circuits
  in
  (* The partition owning the place a cell departs from when it leaves
     position [j] of its path (a host shares its switch's partition),
     and the one where it arrives. *)
  let up_part c j = part.(c.switches.(max 0 (j - 1))) in
  let down_part c j =
    let last = Array.length c.links - 1 in
    part.(c.switches.(if j = last then j - 1 else j))
  in
  (* Guaranteed service map per switch: in_port * ports + out_port ->
     circuit codes, [||] for a switch no guaranteed circuit crosses.
     Built before the engines start and (cluster runs reject events)
     only read afterwards, so one shared table is safe; the round-robin
     cursors are written per slot by the switch's own partition. *)
  let gmap = Array.make n_switches [||] in
  let grr = Array.make n_switches [||] in
  let rebuild_gmap () =
    let acc = Array.make n_switches [||] in
    Array.iteri
      (fun ci c ->
        if c.is_guaranteed then
          Array.iteri
            (fun i s ->
              let j = i + 1 in
              if Array.length acc.(s) = 0 then acc.(s) <- Array.make (ports * ports) [];
              let pair = (c.in_port.(j) * ports) + c.out_port.(j) in
              acc.(s).(pair) <- code ci j :: acc.(s).(pair))
            c.switches)
      circuits;
    Array.iteri
      (fun s m ->
        gmap.(s) <- Array.map Array.of_list m;
        if Array.length m > 0 && Array.length grr.(s) = 0 then
          grr.(s) <- Array.make (ports * ports) 0)
      acc
  in
  rebuild_gmap ();
  (* Best-effort circuit codes through each switch. *)
  let be_at = Array.make n_switches [||] in
  let rebuild_be () =
    let acc = Array.make n_switches [] in
    Array.iteri
      (fun ci c ->
        if not c.is_guaranteed then
          Array.iteri (fun i s -> acc.(s) <- code ci (i + 1) :: acc.(s)) c.switches)
      circuits;
    Array.iteri (fun s l -> be_at.(s) <- Array.of_list l) acc
  in
  rebuild_be ();
  (* Guaranteed backlog per switch line card, indexed by input port. *)
  let gbacklog = Array.init n_switches (fun _ -> Array.make ports 0) in
  let max_gbacklog = Array.make parts 0 in
  let gbacklog_adj s in_port d =
    let b = gbacklog.(s) in
    let v = b.(in_port) + d in
    b.(in_port) <- v;
    let pt = part.(s) in
    if v > max_gbacklog.(pt) then max_gbacklog.(pt) <- v
  in
  let scratch =
    Array.init parts (fun _ -> Fabric.Hybrid_switch.scratch ~ports ~max_be:n_be)
  in
  let link_ok lid = (Topo.Graph.link g lid).Topo.Graph.state = Topo.Graph.Working in
  let latency lid = (Topo.Graph.link g lid).Topo.Graph.latency in
  let deliver pt c (cell : simcell) =
    c.delivered <- c.delivered + 1;
    let now = Netsim.Engine.now engines.(pt) in
    (* A delivery at the closing instant (now = duration) belongs to
       the last tenth, not to a phantom eleventh bucket. *)
    let w = min 9 (now * 10 / max 1 duration) in
    if w >= 0 then
      c.window_delivered.(w) <- c.window_delivered.(w) + 1;
    Netsim.Stats.Distribution.add c.latencies (Netsim.Time.to_us (now - cell.born));
    (* Destination controller: reassemble packet sources. *)
    match cell.payload with
    | None -> ()
    | Some hc ->
      (match Host.Reassembly.push c.reassembly hc with
       | Some (Ok _) ->
         c.packets_delivered <- c.packets_delivered + 1;
         Netsim.Stats.Distribution.add c.packet_latencies
           (Netsim.Time.to_us (now - cell.pstart))
       | Some (Error _) ->
         (* A cell was dropped mid-packet (failure window); the rest of
            the packet is waste, already counted as cell drops. *)
         ()
       | None -> ())
  in
  (* Transmit [cell] sitting at switch position [j] of its path (or
     j = 0 for host injection) onto link links.(j). Runs on the
     partition of the departing node. A callback that finds the
     circuit's epoch unchanged finds its path arrays unchanged too. *)
  let transmit c (cell : simcell) j =
    let sp = up_part c j in
    let out_l = c.links.(j) in
    if not c.is_guaranteed then Flow.Credit.Upstream.on_send c.credits.(j);
    (* Departing switch j >= 1 frees the upstream buffer of link j-1. *)
    if j >= 1 then begin
      if c.is_guaranteed then gbacklog_adj c.switches.(j - 1) c.in_port.(j) (-1)
      else begin
        let ep = cell.epoch in
        post ~src:sp ~dst:(up_part c (j - 1)) ~delay:(latency c.links.(j - 1))
          (fun () ->
            if ep = c.epoch then
              Flow.Credit.Upstream.on_credit c.credits.(j - 1)
                Flow.Credit.Increment)
      end
    end;
    let dp = down_part c j in
    let transit =
      p.cell_time + latency out_l
      + if j >= 1 then p.crossbar_delay else 0
    in
    post ~src:sp ~dst:dp ~delay:transit (fun () ->
        if cell.epoch <> c.epoch || not (link_ok out_l) then
          c.dropped.(dp) <- c.dropped.(dp) + 1
        else if j = Array.length c.links - 1 then begin
          (* Final host link: delivery; the sink frees the buffer
             instantly. *)
          deliver dp c cell;
          if not c.is_guaranteed then begin
            let ep = cell.epoch in
            post ~src:dp ~dst:dp ~delay:(latency out_l) (fun () ->
                if ep = c.epoch then
                  Flow.Credit.Upstream.on_credit c.credits.(j)
                    Flow.Credit.Increment)
          end
        end
        else begin
          Queue.add cell c.queues.(j + 1);
          if c.is_guaranteed then
            gbacklog_adj c.switches.(j) c.in_port.(j + 1) 1
        end)
  in
  (* The fabric's slot kernel runs every switch: circuit codes are the
     flow codes, and a best-effort circuit is eligible only with a
     queued cell and a credit for its next link. *)
  let flows =
    {
      Fabric.Hybrid_switch.ready =
        (fun cd ->
          not (Queue.is_empty circuits.(cd lsr pos_bits).queues.(cd land pos_mask)));
      be_pair =
        (fun cd ->
          let c = circuits.(cd lsr pos_bits) and j = cd land pos_mask in
          if
            Queue.is_empty c.queues.(j)
            || not (Flow.Credit.Upstream.can_send c.credits.(j))
          then -1
          else (c.in_port.(j) * ports) + c.out_port.(j));
      transmit =
        (fun cd ->
          let c = circuits.(cd lsr pos_bits) and j = cd land pos_mask in
          transmit c (Queue.pop c.queues.(j)) j);
    }
  in
  (* One slot of switch [s]. *)
  let switch_slot = Array.make n_switches 0 in
  let do_slot s =
    Fabric.Hybrid_switch.run_slot scratch.(part.(s)) flows
      ~schedule:(Network.switch_schedule net s) ~slot:switch_slot.(s)
      ~gflows:gmap.(s) ~grr:grr.(s) ~be_flows:be_at.(s) ~rng:pim_rngs.(s);
    switch_slot.(s) <- switch_slot.(s) + 1
  in
  (* Per-switch clocks: random phase; optional ppm-level skew realized
     by computing each tick's absolute time in float so sub-ns drift
     accumulates correctly. *)
  let start_switch s =
    let eng = engines.(part.(s)) in
    let phase = Netsim.Rng.int rng frame_time in
    let factor =
      if p.synchronized then 1.0
      else
        1.0
        +. (float_of_int p.skew_ppm *. 1e-6 *. ((Netsim.Rng.float rng 2.0) -. 1.0))
    in
    let ticks = ref 0 in
    let rec tick () =
      do_slot s;
      incr ticks;
      let at =
        phase + int_of_float (Float.round (float_of_int !ticks *. float_of_int p.cell_time *. factor))
      in
      if at <= duration then Netsim.Engine.post_at eng ~at tick
    in
    Netsim.Engine.post_at eng ~at:phase tick
  in
  for s = 0 to n_switches - 1 do
    start_switch s
  done;
  (* Host sources: each runs on the partition of its first switch. *)
  let inject ?payload ?(pstart = 0) c =
    c.sent <- c.sent + 1;
    let born = Netsim.Engine.now engines.(up_part c 0) in
    let cell = { born; epoch = c.epoch; payload; pstart } in
    transmit c cell 0
  in
  List.iteri
    (fun i src ->
      let c = circuits.(i) in
      let eng = engines.(up_part c 0) in
      let srng = src_rngs.(i) in
      match src with
      | Cbr vc ->
        let cells =
          match vc.Network.cls with
          | Network.Guaranteed cells -> cells
          | Network.Best_effort -> invalid_arg "Netrun: Cbr on best-effort vc"
        in
        let gap = max 1 (frame_time / cells) in
        let rec emit () =
          inject c;
          Netsim.Engine.post eng ~delay:gap emit
        in
        Netsim.Engine.post eng ~delay:(Netsim.Rng.int rng gap) emit
      | Saturated_be _ ->
        let rec emit () =
          if Flow.Credit.Upstream.can_send c.credits.(0) then inject c;
          Netsim.Engine.post eng ~delay:p.cell_time emit
        in
        Netsim.Engine.post eng ~delay:p.cell_time emit
      | Paced_be (_, rate) ->
        let rec emit () =
          if Netsim.Rng.bernoulli srng rate then
            c.host_backlog <- c.host_backlog + 1;
          if c.host_backlog > 0 && Flow.Credit.Upstream.can_send c.credits.(0)
          then begin
            c.host_backlog <- c.host_backlog - 1;
            inject c
          end;
          Netsim.Engine.post eng ~delay:p.cell_time emit
        in
        Netsim.Engine.post eng ~delay:p.cell_time emit
      | Packets_be (vc, rate, size) ->
        let cells_per_packet = Host.cells_needed size in
        let start_prob = rate /. float_of_int cells_per_packet in
        let queue : (Host.cell * Netsim.Time.t) Queue.t = Queue.create () in
        let next_pid = ref 0 in
        let rec emit () =
          if Netsim.Rng.bernoulli srng start_prob then begin
            let pid = !next_pid in
            incr next_pid;
            c.packets_sent <- c.packets_sent + 1;
            let start = Netsim.Engine.now eng in
            List.iter
              (fun hc -> Queue.add (hc, start) queue)
              (Host.segment { Host.packet_id = pid; size } ~vc:vc.Network.vc_id)
          end;
          (match Queue.peek_opt queue with
           | Some (hc, start) when Flow.Credit.Upstream.can_send c.credits.(0) ->
             ignore (Queue.pop queue);
             inject ~payload:hc ~pstart:start c
           | _ -> ());
          Netsim.Engine.post eng ~delay:p.cell_time emit
        in
        Netsim.Engine.post eng ~delay:p.cell_time emit)
    sources;
  (* Scheduled control-plane events (single-partition runs only, so
     partition 0 owns every cell they touch). They stay plain engine
     events posted after the slot clocks and sources: as barrier
     actions they would run ahead of same-instant slot ticks. A reroute
     flushes the circuit: queued cells count as drops (and guaranteed
     ones leave their line card's backlog), every credit window starts
     fresh, and the epoch bump makes cells and credits still in flight
     on the old path drop on arrival. *)
  let flush c =
    Array.iteri
      (fun j q ->
        let n = Queue.length q in
        c.dropped.(0) <- c.dropped.(0) + n;
        if c.is_guaranteed && j >= 1 then
          gbacklog_adj c.switches.(j - 1) c.in_port.(j) (-n);
        Queue.clear q)
      c.queues;
    c.credits <- fresh_credits (Array.length c.switches);
    c.epoch <- c.epoch + 1
  in
  (* A failed reroute leaves the circuit dark: it keeps its broken
     path, drops every cell, and is reported in the run outcome (plus
     the [netrun.dark_circuits] counter) instead of being silently
     forgotten. A later successful reroute — e.g. after the partition
     heals and another Reroute event fires — clears the mark. *)
  let went_dark c =
    if not c.dark then begin
      c.dark <- true;
      if obs.Obs.Sink.enabled then Obs.Metrics.Counter.incr c_dark
    end
  in
  let reroute c route =
    if Array.exists (fun lid -> not (link_ok lid)) c.links then begin
      flush c;
      match route c.vc with
      | Ok () ->
        c.dark <- false;
        set_path c
      | Error _ -> went_dark c
    end
  in
  List.iter
    (fun (at, ev) ->
      Netsim.Engine.post_at engines.(0) ~at (fun () ->
          match ev with
          | Fail_link lid -> Topo.Graph.fail_link g lid
          | Fail_switch s -> Topo.Graph.fail_switch g s
          | Reroute_be ->
            Array.iter
              (fun c -> if not c.is_guaranteed then reroute c (Network.reroute net))
              circuits;
            rebuild_be ()
          | Reroute_guaranteed bwc ->
            Array.iter
              (fun c ->
                if c.is_guaranteed then
                  reroute c (Bandwidth_central.reroute_after_failure bwc))
              circuits;
            rebuild_gmap ()))
    events;
  Topo.Partition.run ~domains pc;
  let per_vc =
    Array.to_list
      (Array.map
         (fun c ->
           let d = c.latencies in
           let stats =
             {
               sent = c.sent;
               delivered = c.delivered;
               dropped = Array.fold_left ( + ) 0 c.dropped;
               mean_latency_us = Netsim.Stats.Distribution.mean d;
               p99_latency_us = Netsim.Stats.Distribution.percentile d 99.0;
               max_latency_us = Netsim.Stats.Distribution.max d;
               jitter_us =
                 (if Netsim.Stats.Distribution.count d = 0 then nan
                  else
                    Netsim.Stats.Distribution.max d
                    -. Netsim.Stats.Distribution.percentile d 0.0);
               packets_sent = c.packets_sent;
               packets_delivered = c.packets_delivered;
               packet_mean_latency_us =
                 Netsim.Stats.Distribution.mean c.packet_latencies;
               window_delivered = c.window_delivered;
             }
           in
           (c.vc.Network.vc_id, stats))
         circuits)
  in
  {
    per_vc;
    max_guaranteed_backlog = Array.fold_left max 0 max_gbacklog;
    guaranteed_backlog_frames =
      float_of_int (Array.fold_left max 0 max_gbacklog) /. float_of_int frame;
    dark_circuits =
      Array.fold_left (fun acc c -> if c.dark then acc + 1 else acc) 0 circuits;
  }
