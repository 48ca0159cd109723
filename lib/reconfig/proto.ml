let union (a : int array) (b : int array) =
  let na = Array.length a and nb = Array.length b in
  if nb = 0 then a
  else if na = 0 then b
  else begin
    let out = Array.make (na + nb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < na || !j < nb do
      let x = if !j = nb || (!i < na && a.(!i) < b.(!j)) then a.(!i) else b.(!j) in
      if !i < na && a.(!i) = x then incr i;
      if !j < nb && b.(!j) = x then incr j;
      out.(!k) <- x;
      incr k
    done;
    if !k = na + nb then out else Array.sub out 0 !k
  end

type message =
  | Invite of Tag.t
  | Ack of Tag.t * bool
  | Report of Tag.t * int array * int
  | Distribute of Tag.t * int array
  | Reject of Tag.t * Tag.t

type node = {
  id : int;
  mutable tag : Tag.t;
  mutable parent : int option;
  mutable kids : int array;
      (* the accepted children, [n_children] of them in the order they
         accepted; a child that has reported is stored as [lnot id] *)
  mutable n_children : int;
  mutable pending_acks : int;
  mutable acks_done : bool;
  mutable n_reported : int;
  mutable collected : int array;  (* union of the children's reports *)
  mutable reported_edges : int;  (* sum of the children's Report counts *)
  mutable sent_report : bool;
  mutable completed : (Tag.t * int array) option;
}

let create_node ~id =
  {
    id;
    tag = Tag.zero;
    parent = None;
    kids = [||];
    n_children = 0;
    pending_acks = 0;
    acks_done = false;
    n_reported = 0;
    collected = [||];
    reported_edges = 0;
    sent_report = false;
    completed = None;
  }

let node_id n = n.id
let current_tag n = n.tag
let parent n = n.parent
let child_id k = if k < 0 then lnot k else k

(* [f c :: tail] for each child [c], the latest to accept first. *)
let map_children n f tail =
  let acc = ref tail in
  for i = 0 to n.n_children - 1 do
    acc := f (child_id n.kids.(i)) :: !acc
  done;
  !acc

let children n = map_children n Fun.id []
let completed n = n.completed

type action =
  | Send of { dst : int; msg : message }
  | Completed of Tag.t

type env = {
  neighbors : unit -> int array;
  local_edges : unit -> int array;
}

(* Make room for as many children as invitations are out: a node only
   accepts children while it awaits their answers. *)
let expect_acks n count =
  n.pending_acks <- count;
  if Array.length n.kids < count then n.kids <- Array.make count 0

let reset_for n tag parent =
  n.tag <- tag;
  n.parent <- parent;
  n.n_children <- 0;
  n.pending_acks <- 0;
  n.acks_done <- false;
  n.n_reported <- 0;
  n.collected <- [||];
  n.reported_edges <- 0;
  n.sent_report <- false

(* Collection is finished once every invitation has been answered and
   every accepted child has reported. *)
let collection_done n =
  n.acks_done && n.n_reported = n.n_children && not n.sent_report

let finish_collection n env =
  n.sent_report <- true;
  (* Each node merges its own links into its children's union, so a
     hop's work is linear in its subtree's set and nobody sorts. *)
  let own = env.local_edges () in
  let edges = union own n.collected in
  match n.parent with
  | Some p ->
    let reported = Array.length own + n.reported_edges in
    [ Send { dst = p; msg = Report (n.tag, edges, reported) } ]
  | None ->
    (* Root: topology acquisition complete; distribute down the tree. *)
    n.completed <- Some (n.tag, edges);
    map_children n
      (fun c -> Send { dst = c; msg = Distribute (n.tag, edges) })
      [ Completed n.tag ]

let after_acks n env =
  n.acks_done <- true;
  if collection_done n then finish_collection n env else []

let initiate_from n env base =
  let tag = Tag.next base ~initiator:n.id in
  reset_for n tag None;
  let neighbors = env.neighbors () in
  if Array.length neighbors = 0 then begin
    (* Isolated switch: it alone is the topology. *)
    n.acks_done <- true;
    finish_collection n env
  end
  else begin
    expect_acks n (Array.length neighbors);
    Array.fold_right
      (fun s acc -> Send { dst = s; msg = Invite tag } :: acc)
      neighbors []
  end

let initiate n env = initiate_from n env n.tag

let handle_invite n env ~from tag =
  if Tag.(tag > n.tag) then begin
    (* Abort whatever configuration we were in and join this one as a
       child of the inviter. *)
    reset_for n tag (Some from);
    let neighbors = env.neighbors () in
    let others = ref 0 in
    Array.iter (fun s -> if s <> from then incr others) neighbors;
    expect_acks n !others;
    let accept = Send { dst = from; msg = Ack (tag, true) } in
    let invites =
      Array.fold_right
        (fun s acc ->
          if s <> from then Send { dst = s; msg = Invite tag } :: acc else acc)
        neighbors []
    in
    let follow_up = if !others = 0 then after_acks n env else [] in
    (accept :: invites) @ follow_up
  end
  else if Tag.equal tag n.tag then [ Send { dst = from; msg = Ack (tag, false) } ]
  else
    (* Stale configuration. Ignoring it silently is only safe while the
       newer configuration is still actively propagating; after a
       partition heals, this side may have completed long ago and would
       never contact the inviter, leaving it waiting for an Ack forever.
       Tell the inviter which tag it lost to so it can restart above
       it. *)
    [ Send { dst = from; msg = Reject (tag, n.tag) } ]

let handle_reject n env ~stale ~newer =
  (* Only meaningful if we are still in the configuration that was
     rejected; once the tag has moved (we joined a newer flood, or a
     previous Reject already restarted us) later Rejects for the old
     tag are dropped, which keeps the restart self-limiting. *)
  if Tag.equal stale n.tag && Tag.(newer > n.tag) then
    initiate_from n env newer
  else []

let handle_ack n env ~from tag accepted =
  if Tag.equal tag n.tag && not n.acks_done && n.pending_acks > 0 then begin
    if accepted then begin
      n.kids.(n.n_children) <- from;
      n.n_children <- n.n_children + 1
    end;
    n.pending_acks <- n.pending_acks - 1;
    if n.pending_acks = 0 then after_acks n env else []
  end
  else []

(* Mark child [from] as reported. False if [from] is no child, or one
   that has reported already. *)
let mark_reported n from =
  let rec scan i =
    if i = n.n_children then false
    else if n.kids.(i) = from then begin
      n.kids.(i) <- lnot from;
      true
    end
    else scan (i + 1)
  in
  scan 0

let handle_report n env ~from tag edges reported =
  if Tag.equal tag n.tag && mark_reported n from then begin
    n.n_reported <- n.n_reported + 1;
    n.collected <- union n.collected edges;
    n.reported_edges <- n.reported_edges + reported;
    if collection_done n then finish_collection n env else []
  end
  else []

let handle_distribute n ~from tag topology =
  let fresh =
    match n.completed with
    | Some (t, _) when Tag.equal t tag -> false
    | _ -> true
  in
  if Tag.equal tag n.tag && n.parent = Some from && fresh then begin
    n.completed <- Some (tag, topology);
    map_children n
      (fun c -> Send { dst = c; msg = Distribute (tag, topology) })
      [ Completed tag ]
  end
  else []

let handle n env ~from msg =
  match msg with
  | Invite tag -> handle_invite n env ~from tag
  | Ack (tag, accepted) -> handle_ack n env ~from tag accepted
  | Report (tag, edges, reported) -> handle_report n env ~from tag edges reported
  | Distribute (tag, topology) -> handle_distribute n ~from tag topology
  | Reject (stale, newer) -> handle_reject n env ~stale ~newer
