type t = {
  root : int;
  parent : int array;
  parent_link : int array;
  depth : int array;
}

let bfs g ~root =
  let n = Graph.switch_count g in
  if root < 0 || root >= n then invalid_arg "Spanning.bfs: bad root";
  let parent = Array.make n (-1) in
  let parent_link = Array.make n (-1) in
  let depth = Array.make n (-1) in
  parent.(root) <- root;
  depth.(root) <- 0;
  (* Each switch enters the queue once, when its depth is set. *)
  let queue = Array.make n root in
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let s = queue.(!head) in
    incr head;
    Graph.iter_switch_neighbors g s (fun s' lid ->
        if depth.(s') = -1 then begin
          depth.(s') <- depth.(s) + 1;
          parent.(s') <- s;
          parent_link.(s') <- lid;
          queue.(!tail) <- s';
          incr tail
        end)
  done;
  { root; parent; parent_link; depth }

let height t = Array.fold_left max 0 t.depth

let covers_all g t =
  ignore g;
  Array.for_all (fun d -> d >= 0) t.depth

let children t s =
  let acc = ref [] in
  Array.iteri
    (fun i p -> if p = s && i <> t.root then acc := i :: !acc)
    t.parent;
  List.rev !acc
