let distances g ~src = (Spanning.bfs g ~root:src).Spanning.depth

(* The one BFS kernel behind every circuit's route. The loop itself is
   [Graph.bfs_route], which reads the adjacency arrays directly; this
   module owns its scratch. The scratch is stamped: a search
   invalidates the previous one by bumping [stamp] instead of clearing,
   and the arrays grow to the largest graph seen. Arrays over 256 words
   would go straight to the major heap if allocated per call, so the
   scratch is reused, one per domain ([Domain.DLS]) so [Netsim.Cluster]
   domains never share it. A search allocates nothing but its result. *)
type scratch = {
  mutable prev : int array;
  mutable via : int array;  (* the link [prev] discovered the switch over *)
  mutable seen : int array;  (* = stamp iff discovered by this search *)
  mutable queue : int array;  (* each switch enters at most once *)
  mutable stamp : int;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { prev = [||]; via = [||]; seen = [||]; queue = [||]; stamp = 0 })

(* Run the search into [sc]; whether [dst] was reached. It stops once
   [dst] is discovered. A switch's [prev] and [via] are fixed at its
   first discovery, in the neighbor order a full exhaustion uses, so
   the route is the one the full search would return. *)
let search ?usable g sc ~src ~dst =
  let n = Graph.switch_count g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Paths.route: bad switch id";
  if Array.length sc.seen < n then begin
    let cap = max n (2 * Array.length sc.seen) in
    sc.prev <- Array.make cap 0;
    sc.via <- Array.make cap 0;
    sc.seen <- Array.make cap 0;
    sc.queue <- Array.make cap 0
  end;
  sc.stamp <- sc.stamp + 1;
  Graph.bfs_route ?usable g ~src ~dst ~seen:sc.seen ~stamp:sc.stamp
    ~prev:sc.prev ~via:sc.via ~queue:sc.queue

let route ?usable g ~src ~dst =
  let sc = Domain.DLS.get scratch_key in
  if search ?usable g sc ~src ~dst then begin
    let path = ref [ dst ] and s = ref dst in
    while !s <> src do
      s := sc.prev.(!s);
      path := !s :: !path
    done;
    Some !path
  end
  else None

let route_links ?usable g ~src ~dst ~tail =
  let sc = Domain.DLS.get scratch_key in
  if search ?usable g sc ~src ~dst then begin
    let path = ref [ dst ] and links = ref tail and s = ref dst in
    while !s <> src do
      links := sc.via.(!s) :: !links;
      s := sc.prev.(!s);
      path := !s :: !path
    done;
    Some (!path, !links)
  end
  else None

let links_of_switches g switches ~tail =
  let rec walk acc = function
    | a :: (b :: _ as rest) -> (
      match Graph.switch_link g a b with
      | Some lid -> walk (lid :: acc) rest
      | None -> Error (a, b))
    | _ -> Ok (List.rev_append acc tail)
  in
  walk [] switches

let mean_distance g =
  let n = Graph.switch_count g in
  if n < 2 then 0.0
  else begin
    let total = ref 0 and count = ref 0 in
    for src = 0 to n - 1 do
      let dist = distances g ~src in
      Array.iteri
        (fun dst d ->
          if dst <> src && d >= 0 then begin
            total := !total + d;
            incr count
          end)
        dist
    done;
    if !count = 0 then 0.0 else float_of_int !total /. float_of_int !count
  end

let diameter g =
  let n = Graph.switch_count g in
  let best = ref 0 in
  for src = 0 to n - 1 do
    Array.iter (fun d -> if d > !best then best := d) (distances g ~src)
  done;
  !best
