let distances g ~src = (Spanning.bfs g ~root:src).Spanning.depth

(* The one BFS kernel behind every circuit's switch path. Its scratch
   is stamped: a search invalidates the previous one by bumping
   [stamp] instead of clearing, and the arrays grow to the largest
   graph seen. Arrays over 256 words would go straight to the major
   heap if allocated per call, so the scratch is reused, one per
   domain ([Domain.DLS]) so [Netsim.Cluster] domains never share it.
   The neighbor visitor is built once with its scratch and reads its
   inputs from it, so a search allocates nothing but its result. *)
type scratch = {
  mutable prev : int array;
  mutable seen : int array;  (* = stamp iff discovered by this search *)
  mutable queue : int array;  (* each switch enters at most once *)
  mutable stamp : int;
  mutable tail : int;
  mutable from : int;  (* the switch whose neighbors are being visited *)
  mutable usable : int -> bool;
  mutable visit : int -> int -> unit;
}

let all_links _ = true

let new_scratch () =
  let sc =
    { prev = [||]; seen = [||]; queue = [||]; stamp = 0; tail = 0; from = 0;
      usable = all_links; visit = (fun _ _ -> ()) }
  in
  sc.visit <-
    (fun s' lid ->
      if sc.seen.(s') <> sc.stamp && sc.usable lid then begin
        sc.seen.(s') <- sc.stamp;
        sc.prev.(s') <- sc.from;
        sc.queue.(sc.tail) <- s';
        sc.tail <- sc.tail + 1
      end);
  sc

let scratch_key = Domain.DLS.new_key new_scratch

let route ?(usable = all_links) g ~src ~dst =
  let n = Graph.switch_count g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Paths.route: bad switch id";
  let sc = Domain.DLS.get scratch_key in
  if Array.length sc.seen < n then begin
    let cap = max n (2 * Array.length sc.seen) in
    sc.prev <- Array.make cap 0;
    sc.seen <- Array.make cap 0;
    sc.queue <- Array.make cap 0
  end;
  sc.stamp <- sc.stamp + 1;
  sc.usable <- usable;
  let stamp = sc.stamp in
  sc.seen.(src) <- stamp;
  sc.queue.(0) <- src;
  sc.tail <- 1;
  let head = ref 0 in
  (* Stop once [dst] is discovered. A switch's [prev] is fixed at its
     first discovery, in the neighbor order a full exhaustion uses, so
     the path is the one the full search would return. *)
  while !head < sc.tail && sc.seen.(dst) <> stamp do
    let s = sc.queue.(!head) in
    incr head;
    sc.from <- s;
    Graph.iter_switch_neighbors g s sc.visit
  done;
  (* Drop the caller's predicate so the scratch does not keep it alive. *)
  sc.usable <- all_links;
  if sc.seen.(dst) <> stamp then None
  else begin
    let path = ref [ dst ] and s = ref dst in
    while !s <> src do
      s := sc.prev.(!s);
      path := !s :: !path
    done;
    Some !path
  end

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
