type buffering =
  | Shared_fifo of int
  | Per_vc of int

type routing =
  | Shortest
  | Updown

type params = {
  buffering : buffering;
  routing : routing;
  circuits : int;
  slots : int;
  seed : int;
}

let default_params =
  {
    buffering = Shared_fifo 2;
    routing = Shortest;
    circuits = 8;
    slots = 2000;
    seed = 1;
  }

type result = {
  deadlocked : bool;
  deadlock_slot : int option;
  delivered : int;
  stranded : int;
}

type cell = { circuit : int; mutable hop : int }

let route_for g routing ~src ~dst =
  match routing with
  | Shortest -> Topo.Paths.route g ~src ~dst
  | Updown ->
    let tree = Topo.Spanning.bfs g ~root:0 in
    let orientation = Topo.Updown.orient g tree in
    Topo.Updown.route g orientation ~src ~dst

let run ?(obs = Obs.Sink.null) g p =
  let n = Topo.Graph.switch_count g in
  if n < 2 then invalid_arg "Deadlock.run: need at least two switches";
  ignore p.seed;
  let obs_on = obs.Obs.Sink.enabled in
  let c_injected = Obs.Sink.counter obs "flow.deadlock.injected" in
  let c_delivered = Obs.Sink.counter obs "flow.deadlock.delivered" in
  let c_activations = Obs.Sink.counter obs "flow.deadlock.activations" in
  let g_buffered = Obs.Sink.gauge obs "flow.deadlock.buffered" in
  (* Circuits spread evenly around the topology, each shifted forward
     by about a third of the network: on a ring all shortest routes
     point the same way, which collectively forms a dependency
     cycle. *)
  let mk_circuit c =
    let src = c * n / p.circuits mod n in
    let dst = (src + max 1 (n / 3)) mod n in
    match route_for g p.routing ~src ~dst with
    | Some path -> path
    | None -> [ src ]
  in
  let routes = Array.init p.circuits mk_circuit in
  (* Directed links, keyed by (from, to): at most two per physical link. *)
  let dlinks = Hashtbl.create (max 64 (2 * Topo.Graph.link_count g)) in
  let dlink u v =
    match Hashtbl.find_opt dlinks (u, v) with
    | Some id -> id
    | None ->
      let id = Hashtbl.length dlinks in
      Hashtbl.add dlinks (u, v) id;
      id
  in
  Array.iter
    (fun path ->
      let rec register = function
        | a :: (b :: _ as rest) ->
          ignore (dlink a b);
          register rest
        | _ -> ()
      in
      register path)
    routes;
  let nd = Hashtbl.length dlinks in
  (* hops.(c) = directed link ids along circuit c's route. *)
  let hops =
    Array.map
      (fun path ->
        let rec collect = function
          | a :: (b :: _ as rest) -> dlink a b :: collect rest
          | _ -> []
        in
        Array.of_list (collect path))
      routes
  in
  (* Buffer state. Shared: one FIFO per directed link. Per-VC: one
     FIFO per (directed link, circuit). *)
  let shared_cap, pervc_cap =
    match p.buffering with
    | Shared_fifo b -> (b, 0)
    | Per_vc b -> (0, b)
  in
  let shared = Array.init nd (fun _ -> Queue.create ()) in
  let pervc = Array.init nd (fun _ -> Array.init p.circuits (fun _ -> Queue.create ())) in
  let rr = Array.make nd 0 in
  let buffered = ref 0 in
  let delivered = ref 0 in
  let has_space d c =
    match p.buffering with
    | Shared_fifo _ -> Queue.length shared.(d) < shared_cap
    | Per_vc _ -> Queue.length pervc.(d).(c) < pervc_cap
  in
  let push d (cell : cell) =
    incr buffered;
    match p.buffering with
    | Shared_fifo _ -> Queue.add cell shared.(d)
    | Per_vc _ -> Queue.add cell pervc.(d).(cell.circuit)
  in
  (* Try to advance the head cell of [d] (shared mode) or circuit [c]'s
     head on [d] (per-VC mode). Returns true on progress. *)
  let advance_cell (cell : cell) pop =
    let route = hops.(cell.circuit) in
    if cell.hop = Array.length route - 1 then begin
      (* Final hop: the destination host consumes the cell. *)
      ignore (pop ());
      decr buffered;
      incr delivered;
      true
    end
    else begin
      let next = route.(cell.hop + 1) in
      if has_space next cell.circuit then begin
        ignore (pop ());
        decr buffered;
        cell.hop <- cell.hop + 1;
        push next cell;
        true
      end
      else false
    end
  in
  let step_link d =
    match p.buffering with
    | Shared_fifo _ ->
      (match Queue.peek_opt shared.(d) with
       | None -> false
       | Some cell -> advance_cell cell (fun () -> Queue.pop shared.(d)))
    | Per_vc _ ->
      (* Round-robin over circuits; the first movable head moves, so a
         blocked circuit cannot block the others. *)
      let moved = ref false and tried = ref 0 in
      while (not !moved) && !tried < p.circuits do
        let c = (rr.(d) + !tried) mod p.circuits in
        incr tried;
        (match Queue.peek_opt pervc.(d).(c) with
         | None -> ()
         | Some cell ->
           if advance_cell cell (fun () -> Queue.pop pervc.(d).(c)) then begin
             moved := true;
             rr.(d) <- (c + 1) mod p.circuits
           end)
      done;
      !moved
  in
  let deadlock_slot = ref None in
  let slot = ref 0 in
  while !deadlock_slot = None && !slot < p.slots do
    (* Injection: every circuit offers a cell every slot. *)
    for c = 0 to p.circuits - 1 do
      if Array.length hops.(c) > 0 then begin
        let first = hops.(c).(0) in
        if has_space first c then begin
          push first { circuit = c; hop = 0 };
          if obs_on then Obs.Metrics.Counter.incr c_injected
        end
      end
    done;
    (* One forwarding opportunity per directed link, rotating the scan
       origin for fairness. *)
    let progress = ref false in
    for k = 0 to nd - 1 do
      if step_link ((k + !slot) mod nd) then progress := true
    done;
    if obs_on then begin
      Obs.Metrics.Gauge.set g_buffered (float_of_int !buffered);
      Obs.Sink.sample obs ~name:"deadlock.buffered" ~cat:"flow" ~ts:!slot
        ~v:!buffered
    end;
    if (not !progress) && !buffered > 0 then begin
      (* The deadlock detector: a full scan of every directed link
         moved nothing while cells remain buffered. *)
      deadlock_slot := Some !slot;
      if obs_on then begin
        Obs.Metrics.Counter.incr c_activations;
        Obs.Sink.instant obs ~name:"deadlock-detected" ~cat:"flow" ~ts:!slot
          ~tid:0 ~v:!buffered
      end
    end;
    incr slot
  done;
  if obs_on then Obs.Metrics.Counter.set c_delivered !delivered;
  {
    deadlocked = !deadlock_slot <> None;
    deadlock_slot = !deadlock_slot;
    delivered = !delivered;
    stranded = !buffered;
  }
