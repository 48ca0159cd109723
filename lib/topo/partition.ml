(* Balanced latency-weighted region growing.

   1. Seeds: farthest-point traversal. The first seed is switch 0;
      each further seed is the switch whose latency-distance to the
      nearest existing seed is largest (unreached switches count as
      infinitely far, so disconnected components get seeds first).
      Ties break toward the smallest id.

   2. Growth: one multi-source Dijkstra over all seeds at once, each
      pop assigning a switch to the seed's region unless the region
      already holds ceil(n/parts) switches. The {!Netsim.Eheap} pops
      FIFO among equal distances, so the whole growth is
      deterministic.

   3. Fixup: switches no unfull region reached (capacity shadowing,
      isolated switches) go to the currently smallest region in id
      order, so the result is total and stays balanced. *)

(* Adjacency over every switch-to-switch link, dead or alive. *)
let switch_adjacency g =
  let n = Graph.switch_count g in
  let adj = Array.make n [] in
  List.iter
    (fun l ->
      match (l.Graph.a.Graph.node, l.Graph.b.Graph.node) with
      | Graph.Switch a, Graph.Switch b ->
        adj.(a) <- (b, l.Graph.latency) :: adj.(a);
        adj.(b) <- (a, l.Graph.latency) :: adj.(b)
      | _ -> ())
    (Graph.links g);
  Array.map List.rev adj

(* Single-source Dijkstra refining [dist] (min over all sources so
   far). *)
let relax_from adj dist src =
  let heap = Netsim.Eheap.create () in
  if dist.(src) > 0 then begin
    dist.(src) <- 0;
    Netsim.Eheap.add heap ~time:0 ~slot:src
  end;
  while not (Netsim.Eheap.is_empty heap) do
    let s = Netsim.Eheap.pop heap in
    let d = Netsim.Eheap.popped_time heap in
    if d = dist.(s) then
      List.iter
        (fun (s', w) ->
          let d' = d + w in
          if d' < dist.(s') then begin
            dist.(s') <- d';
            Netsim.Eheap.add heap ~time:d' ~slot:s'
          end)
        adj.(s)
  done

let assign g ~parts =
  if parts < 1 then invalid_arg "Partition.assign: parts must be >= 1";
  let n = Graph.switch_count g in
  if n = 0 then invalid_arg "Partition.assign: graph has no switches";
  let parts = min parts n in
  if parts = 1 then Array.make n 0
  else begin
    let adj = switch_adjacency g in
    (* Farthest-point seeds. *)
    let seeds = Array.make parts 0 in
    let seeded = Array.make n false in
    seeded.(0) <- true;
    let dist = Array.make n max_int in
    relax_from adj dist 0;
    for k = 1 to parts - 1 do
      (* Farthest unseeded switch; restricting to unseeded ones keeps
         seeds distinct even across zero-latency links. *)
      let best = ref (-1) and best_d = ref min_int in
      for s = 0 to n - 1 do
        if (not seeded.(s)) && dist.(s) > !best_d then begin
          best := s;
          best_d := dist.(s)
        end
      done;
      seeds.(k) <- !best;
      seeded.(!best) <- true;
      relax_from adj dist !best
    done;
    (* Balanced multi-source growth. *)
    let cap = (n + parts - 1) / parts in
    let part = Array.make n (-1) in
    let size = Array.make parts 0 in
    (* Queue payloads encode (switch s, region k) as s * parts + k. *)
    let heap = Netsim.Eheap.create () in
    Array.iteri
      (fun k seed -> Netsim.Eheap.add heap ~time:0 ~slot:((seed * parts) + k))
      seeds;
    while not (Netsim.Eheap.is_empty heap) do
      let code = Netsim.Eheap.pop heap in
      let d = Netsim.Eheap.popped_time heap in
      let s = code / parts and k = code mod parts in
      if part.(s) < 0 && size.(k) < cap then begin
        part.(s) <- k;
        size.(k) <- size.(k) + 1;
        List.iter
          (fun (s', w) ->
            if part.(s') < 0 then
              Netsim.Eheap.add heap ~time:(d + w) ~slot:((s' * parts) + k))
          adj.(s)
      end
    done;
    (* Fixup: anything unreached joins the smallest region. *)
    for s = 0 to n - 1 do
      if part.(s) < 0 then begin
        let k = ref 0 in
        for k' = 1 to parts - 1 do
          if size.(k') < size.(!k) then k := k'
        done;
        part.(s) <- !k;
        size.(!k) <- size.(!k) + 1
      end
    done;
    part
  end

let lookahead g part =
  List.fold_left
    (fun acc l ->
      match (l.Graph.a.Graph.node, l.Graph.b.Graph.node) with
      | Graph.Switch a, Graph.Switch b when part.(a) <> part.(b) ->
        (match acc with
         | Some m when m <= l.Graph.latency -> acc
         | _ -> Some l.Graph.latency)
      | _ -> acc)
    None (Graph.links g)

type cluster = {
  part : int array;
  parts : int;
  sinks : Obs.Sink.t array;
  engines : Netsim.Engine.t array;
  cl : Netsim.Cluster.t;
  obs : Obs.Sink.t;
  horizon : Netsim.Time.t;
}

let cluster ?heartbeat ~label ~obs ~horizon g ~parts =
  let n = Graph.switch_count g in
  let part = if min parts n <= 1 then Array.make n 0 else assign g ~parts in
  let parts = 1 + Array.fold_left max 0 part in
  let lookahead =
    match lookahead g part with
    | Some l when l >= 1 -> l
    | _ when parts = 1 -> 0
    | _ ->
      invalid_arg
        "Partition.cluster: partitioning has no positive cross-partition \
         lookahead"
  in
  (* One part feeds the caller's sink directly; more parts get one sink
     each, merged back by [run]. *)
  let sinks =
    if parts = 1 then [| obs |]
    else
      Array.init parts (fun _ ->
          if obs.Obs.Sink.enabled then Obs.Sink.create () else Obs.Sink.null)
  in
  let cl = Netsim.Cluster.create ~sinks ~parts ~lookahead () in
  (match heartbeat with
   | None -> ()
   | Some (every, flight) ->
     (* Snapshots run as barrier actions, every engine quiescent:
        folding the caller's sink and each partition sink into a fresh
        registry is a complete point-in-time view. *)
     Netsim.Heartbeat.attach_cluster cl ~every ~horizon ~flight ~label
       ~snapshot:(fun () ->
         let m = Obs.Metrics.create () in
         Obs.Metrics.merge_into ~into:m (Obs.Sink.metrics obs);
         if parts > 1 then
           Array.iter
             (fun s -> Obs.Metrics.merge_into ~into:m (Obs.Sink.metrics s))
             sinks;
         m));
  {
    part;
    parts;
    sinks;
    engines = Array.init parts (Netsim.Cluster.engine cl);
    cl;
    obs;
    horizon;
  }

let run ?domains c =
  Netsim.Cluster.run ?domains c.cl ~horizon:c.horizon;
  (* Join: per-partition metrics and trace rings fold back into the
     caller's sink in fixed partition order. *)
  if c.parts > 1 && c.obs.Obs.Sink.enabled then
    Array.iter (fun s -> Obs.Sink.merge_into ~into:c.obs s) c.sinks
