type t = {
  graph : Graph.t;
  depth : int array;
}

let orient g (tree : Spanning.t) = { graph = g; depth = tree.depth }

(* The paper's rule: up is toward the root (smaller depth); ties go
   toward the higher-numbered switch. *)
let up t ~from ~to_ =
  let df = t.depth.(from) and dt = t.depth.(to_) in
  if df <> dt then dt < df else to_ > from

let goes_up t ~from ~to_ =
  if Graph.switch_link t.graph from to_ = None then
    invalid_arg
      (Printf.sprintf "Updown.goes_up: switches %d and %d not adjacent" from to_);
  up t ~from ~to_

let legal_path t = function
  | [] | [ _ ] -> true
  | first :: rest ->
    let rec check prev gone_down = function
      | [] -> true
      | next :: tl ->
        let up = goes_up t ~from:prev ~to_:next in
        if up && gone_down then false
        else check next (gone_down || not up) tl
    in
    check first false rest

(* BFS over (switch, phase) states. Phase 0: only ups so far (may still
   go up or down); phase 1: has gone down (only down allowed). Each
   discovered state keeps the state it came from in [prev] and the link
   it came over in [via]. *)
let search g t ~src =
  let n = Graph.switch_count g in
  let dist = Array.make (2 * n) (-1) in
  let prev = Array.make (2 * n) (-1) in
  let via = Array.make (2 * n) (-1) in
  let state s phase = (2 * s) + phase in
  dist.(state src 0) <- 0;
  (* Each state enters the queue once, when its distance is set. *)
  let queue = Array.make (2 * n) (state src 0) in
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let st = queue.(!head) in
    incr head;
    let s = st / 2 and phase = st mod 2 in
    let d = dist.(st) in
    Graph.iter_switch_neighbors g s (fun s' lid ->
        let up = up t ~from:s ~to_:s' in
        let allowed = (not up) || phase = 0 in
        if allowed then begin
          let phase' = if up then 0 else 1 in
          let st' = state s' phase' in
          if dist.(st') = -1 then begin
            dist.(st') <- d + 1;
            prev.(st') <- st;
            via.(st') <- lid;
            queue.(!tail) <- st';
            incr tail
          end
        end)
  done;
  (dist, prev, via)

let best_state dist s =
  let d0 = dist.(2 * s) and d1 = dist.((2 * s) + 1) in
  match (d0, d1) with
  | -1, -1 -> None
  | -1, d -> Some ((2 * s) + 1, d)
  | d, -1 -> Some (2 * s, d)
  | a, b -> if a <= b then Some (2 * s, a) else Some ((2 * s) + 1, b)

let distances g t ~src =
  let dist, _, _ = search g t ~src in
  Array.init (Graph.switch_count g) (fun s ->
      match best_state dist s with None -> -1 | Some (_, d) -> d)

let route_links g t ~src ~dst ~tail =
  if src = dst then Some ([ src ], tail)
  else begin
    let dist, prev, via = search g t ~src in
    match best_state dist dst with
    | None -> None
    | Some (st, _) ->
      let rec walk switches links st =
        let s = st / 2 in
        if s = src && dist.(st) = 0 then (s :: switches, links)
        else walk (s :: switches) (via.(st) :: links) prev.(st)
      in
      Some (walk [] tail st)
  end

let route g t ~src ~dst = Option.map fst (route_links g t ~src ~dst ~tail:[])

let mean_stretch g t =
  let n = Graph.switch_count g in
  if n < 2 then 1.0
  else begin
    let total = ref 0.0 and count = ref 0 in
    for src = 0 to n - 1 do
      let unrestricted = Paths.distances g ~src in
      let restricted = distances g t ~src in
      for dst = 0 to n - 1 do
        if dst <> src && unrestricted.(dst) > 0 && restricted.(dst) > 0 then begin
          total :=
            !total
            +. (float_of_int restricted.(dst) /. float_of_int unrestricted.(dst));
          incr count
        end
      done
    done;
    if !count = 0 then 1.0 else !total /. float_of_int !count
  end

(* Wait-for dependencies between directed links: a cell buffered on
   directed link (u -> v) may wait for buffer space on (v -> w). With
   FIFO shared buffers, a cycle of such dependencies can deadlock
   (paper §5). Directed links are encoded as 2*link_id + side. *)
let dependency_acyclic g ~restricted =
  let nl = Graph.link_count g in
  let dir_count = 2 * nl in
  (* For each switch, working incident switch links with the neighbor. *)
  let n = Graph.switch_count g in
  let incoming = Array.make n [] in
  (* directed link id for traversal u->v over link lid *)
  let dlid lid u v =
    let l = Graph.link g lid in
    match (l.a.node, l.b.node) with
    | Graph.Switch a, Graph.Switch b when a = u && b = v -> 2 * lid
    | Graph.Switch a, Graph.Switch b when a = v && b = u -> (2 * lid) + 1
    | _ -> invalid_arg "dependency_acyclic: not a switch-switch link"
  in
  for u = 0 to n - 1 do
    List.iter
      (fun (v, lid) -> incoming.(v) <- (u, lid) :: incoming.(v))
      (Graph.switch_neighbors g u)
  done;
  (* Edges: (u->v) depends on (v->w) when a route may take u->v then
     v->w. Under up*/down*, that transition is illegal iff u->v goes
     down and v->w goes up. *)
  let adj = Array.make dir_count [] in
  for v = 0 to n - 1 do
    List.iter
      (fun (u, lid_in) ->
        let d_in = dlid lid_in u v in
        List.iter
          (fun (w, lid_out) ->
            if w <> u || lid_out <> lid_in then begin
              let allowed =
                match restricted with
                | None -> true
                | Some t ->
                  let down_in = not (up t ~from:u ~to_:v) in
                  let up_out = up t ~from:v ~to_:w in
                  not (down_in && up_out)
              in
              if allowed then adj.(d_in) <- dlid lid_out v w :: adj.(d_in)
            end)
          (Graph.switch_neighbors g v))
      incoming.(v)
  done;
  (* Cycle detection by iterative DFS coloring. *)
  let color = Array.make dir_count 0 in
  let acyclic = ref true in
  let rec visit node =
    if color.(node) = 1 then acyclic := false
    else if color.(node) = 0 then begin
      color.(node) <- 1;
      List.iter (fun next -> if !acyclic then visit next) adj.(node);
      color.(node) <- 2
    end
  in
  for d = 0 to dir_count - 1 do
    if !acyclic && color.(d) = 0 then visit d
  done;
  !acyclic
