type node_id =
  | Switch of int
  | Host of int

let pp_node fmt = function
  | Switch s -> Format.fprintf fmt "s%d" s
  | Host h -> Format.fprintf fmt "h%d" h

type endpoint = { node : node_id; port : int }

type link_state =
  | Working
  | Dead

(* Why a link is dead, as a bitmask. A link can be dead for up to three
   independent reasons at once: an explicit [fail_link], and a crash of
   the switch at either endpoint. Fail/restore operations add and
   remove causes; the link works again only when every cause has been
   cleared, so overlapping failures compose ([fail_link L; fail_switch
   S; restore_switch S] leaves [L] dead). Each operation is idempotent:
   failing twice from the same cause needs only one restore. *)
let cause_explicit = 1
let cause_crash_a = 2
let cause_crash_b = 4

type link = {
  link_id : int;
  a : endpoint;
  b : endpoint;
  latency : Netsim.Time.t;
  mutable state : link_state;
  mutable fail_causes : int;
}

(* Struct-of-arrays storage. Nodes are just used-port counters (ports
   are allocated lowest-first and never freed, so the count IS the next
   free port); links live in a dense array indexed by link id; the
   working/dead state is mirrored into [live], one byte per link
   (1 = working), so a link-state test is one byte load.

   Adjacency is a CSR (compressed sparse row) built lazily: [sw_adj]
   holds link ids grouped per switch between offsets [sw_off.(s)] and
   [sw_off.(s+1)], each group sorted by (other-node kind, other id,
   link id) — switch neighbors first, then host attachments, each in
   the (other, link) order the list API documents. [sw_far] runs
   parallel to [sw_adj] and holds each link's far end as an int code
   (switch [s] is [s], host [h] is [-h-1]), so a neighbor visit reads
   two flat arrays and the byte table and never the link record; the
   host side has the same pair. Far ends depend only on structure, so
   structural changes (add/connect) only mark the CSR dirty and
   fail/restore never touch it: failure churn on a frozen topology is
   allocation-free.

   Every hot loop here indexes flat arrays with no division and no
   call per neighbor. The default dune profile compiles with
   [-opaque], so nothing is inlined or constant-folded across modules:
   a constant such as another module's word size is a load at run time
   and a divide by it a hardware divide. *)

type t = {
  sw_ports : int;
  host_ports : int;
  mutable n_switches : int;
  mutable sw_used : int array;  (* used (= next free) port per switch *)
  mutable n_hosts : int;
  mutable host_used : int array;
  mutable n_links : int;
  mutable link_arr : link array;  (* index = link id; dense prefix *)
  mutable live : Bytes.t;  (* one byte per link id, 1 = working *)
  mutable version : int;  (* bumped on any mutation, keys caches *)
  mutable csr_valid : bool;
  mutable sw_off : int array;  (* n_switches + 1 offsets into sw_adj *)
  mutable sw_adj : int array;  (* link ids, per-switch sorted groups *)
  mutable sw_far : int array;  (* far-end code of each sw_adj entry *)
  mutable host_off : int array;
  mutable host_adj : int array;
  mutable host_far : int array;
}

let create ?(ports_per_switch = 16) ?(ports_per_host = 2) () =
  {
    sw_ports = ports_per_switch;
    host_ports = ports_per_host;
    n_switches = 0;
    sw_used = [||];
    n_hosts = 0;
    host_used = [||];
    n_links = 0;
    link_arr = [||];
    live = Bytes.empty;
    version = 0;
    csr_valid = false;
    sw_off = [| 0 |];
    sw_adj = [||];
    sw_far = [||];
    host_off = [| 0 |];
    host_adj = [||];
    host_far = [||];
  }

let version t = t.version

let push_int arr n v =
  let cap = Array.length arr in
  if n = cap then begin
    let narr = Array.make (if cap = 0 then 8 else cap * 2) 0 in
    Array.blit arr 0 narr 0 n;
    narr.(n) <- v;
    narr
  end
  else begin
    arr.(n) <- v;
    arr
  end

let add_switch t =
  let id = t.n_switches in
  t.sw_used <- push_int t.sw_used id 0;
  t.n_switches <- id + 1;
  t.csr_valid <- false;
  t.version <- t.version + 1;
  id

let add_switches t n =
  for _ = 1 to n do
    ignore (add_switch t)
  done

let add_host t =
  let id = t.n_hosts in
  t.host_used <- push_int t.host_used id 0;
  t.n_hosts <- id + 1;
  t.csr_valid <- false;
  t.version <- t.version + 1;
  id

let check_switch t s =
  if s < 0 || s >= t.n_switches then invalid_arg "Graph: bad switch id"

let check_host t h = if h < 0 || h >= t.n_hosts then invalid_arg "Graph: bad host id"

let check_node t = function
  | Switch s -> check_switch t s
  | Host h -> check_host t h

(* Next free port of a node, or None when the node is full. *)
let free_port t = function
  | Switch s ->
    let p = t.sw_used.(s) in
    if p >= t.sw_ports then None else Some p
  | Host h ->
    let p = t.host_used.(h) in
    if p >= t.host_ports then None else Some p

let take_port t = function
  | Switch s -> t.sw_used.(s) <- t.sw_used.(s) + 1
  | Host h -> t.host_used.(h) <- t.host_used.(h) + 1

let set_live t id on = Bytes.set t.live id (if on then '\001' else '\000')

let connect ?(latency = Netsim.Time.us 1) t n1 n2 =
  check_node t n1;
  check_node t n2;
  match (free_port t n1, free_port t n2) with
  | Some p1, Some p2 ->
    take_port t n1;
    take_port t n2;
    let id = t.n_links in
    let link =
      {
        link_id = id;
        a = { node = n1; port = p1 };
        b = { node = n2; port = p2 };
        latency;
        state = Working;
        fail_causes = 0;
      }
    in
    let cap = Array.length t.link_arr in
    if id = cap then begin
      let narr = Array.make (if cap = 0 then 16 else cap * 2) link in
      Array.blit t.link_arr 0 narr 0 id;
      t.link_arr <- narr
    end
    else t.link_arr.(id) <- link;
    t.n_links <- id + 1;
    let cap = Bytes.length t.live in
    if id = cap then begin
      let nl = Bytes.make (if cap = 0 then 16 else cap * 2) '\000' in
      Bytes.blit t.live 0 nl 0 id;
      t.live <- nl
    end;
    set_live t id true;
    t.csr_valid <- false;
    t.version <- t.version + 1;
    id
  | None, _ -> Format.kasprintf failwith "Graph.connect: no free port on %a" pp_node n1
  | _, None -> Format.kasprintf failwith "Graph.connect: no free port on %a" pp_node n2

let switch_count t = t.n_switches
let host_count t = t.n_hosts
let link_count t = t.n_links
let ports_per_switch t = t.sw_ports

let link t id =
  if id < 0 || id >= t.n_links then
    invalid_arg (Printf.sprintf "Graph.link: unknown link %d" id);
  t.link_arr.(id)

let links t = List.init t.n_links (fun i -> t.link_arr.(i))

let other_end l node =
  if l.a.node = node then l.b
  else if l.b.node = node then l.a
  else invalid_arg "Graph.other_end: node not on link"

(* CSR (re)build: count degrees, prefix-sum into offsets, fill, then
   sort each group. Cost O(V + E log maxdeg), paid once per batch of
   structural changes — a query after N connects rebuilds once. *)

(* A node as an int code: switch [s] is [s], host [h] is [-h-1]. *)
let code = function Switch s -> s | Host h -> -h - 1

(* Sort key of an incident link with far-end code [far]: switch
   neighbors before host attachments, then by other id, then by link
   id — the order the list API has always returned. Node and link ids
   fit comfortably in the shifted fields on 64-bit. *)
let adj_key far lid =
  let kind_other = if far >= 0 then far else (1 lsl 30) lor (-far - 1) in
  (kind_other lsl 31) lor lid

let sort_group adj far lo hi =
  (* insertion sort: groups are node degrees, small and mostly sorted *)
  for i = lo + 1 to hi - 1 do
    let v = adj.(i) and o = far.(i) in
    let k = adj_key o v in
    let j = ref (i - 1) in
    while !j >= lo && adj_key far.(!j) adj.(!j) > k do
      adj.(!j + 1) <- adj.(!j);
      far.(!j + 1) <- far.(!j);
      decr j
    done;
    adj.(!j + 1) <- v;
    far.(!j + 1) <- o
  done

let rebuild_csr t =
  let ns = t.n_switches and nh = t.n_hosts in
  let sw_off = Array.make (ns + 1) 0 in
  let host_off = Array.make (nh + 1) 0 in
  let bump = function
    | Switch s -> sw_off.(s + 1) <- sw_off.(s + 1) + 1
    | Host h -> host_off.(h + 1) <- host_off.(h + 1) + 1
  in
  for i = 0 to t.n_links - 1 do
    let l = t.link_arr.(i) in
    bump l.a.node;
    bump l.b.node
  done;
  for s = 1 to ns do
    sw_off.(s) <- sw_off.(s) + sw_off.(s - 1)
  done;
  for h = 1 to nh do
    host_off.(h) <- host_off.(h) + host_off.(h - 1)
  done;
  let sw_adj = Array.make sw_off.(ns) 0 and sw_far = Array.make sw_off.(ns) 0 in
  let host_adj = Array.make host_off.(nh) 0
  and host_far = Array.make host_off.(nh) 0 in
  let sw_fill = Array.copy sw_off and host_fill = Array.copy host_off in
  let place lid other = function
    | Switch s ->
      sw_adj.(sw_fill.(s)) <- lid;
      sw_far.(sw_fill.(s)) <- code other;
      sw_fill.(s) <- sw_fill.(s) + 1
    | Host h ->
      host_adj.(host_fill.(h)) <- lid;
      host_far.(host_fill.(h)) <- code other;
      host_fill.(h) <- host_fill.(h) + 1
  in
  for i = 0 to t.n_links - 1 do
    let l = t.link_arr.(i) in
    place i l.b.node l.a.node;
    place i l.a.node l.b.node
  done;
  for s = 0 to ns - 1 do
    sort_group sw_adj sw_far sw_off.(s) sw_off.(s + 1)
  done;
  for h = 0 to nh - 1 do
    sort_group host_adj host_far host_off.(h) host_off.(h + 1)
  done;
  t.sw_off <- sw_off;
  t.sw_adj <- sw_adj;
  t.sw_far <- sw_far;
  t.host_off <- host_off;
  t.host_adj <- host_adj;
  t.host_far <- host_far;
  t.csr_valid <- true

let ensure_csr t = if not t.csr_valid then rebuild_csr t

let add_cause t l c =
  l.fail_causes <- l.fail_causes lor c;
  l.state <- Dead;
  set_live t l.link_id false;
  t.version <- t.version + 1

let remove_cause t l c =
  l.fail_causes <- l.fail_causes land lnot c;
  l.state <- (if l.fail_causes = 0 then Working else Dead);
  set_live t l.link_id (l.state = Working);
  t.version <- t.version + 1

let fail_link t id = add_cause t (link t id) cause_explicit
let restore_link t id = remove_cause t (link t id) cause_explicit

(* The crash cause for switch [s] on link [l]: which endpoint it is. *)
let crash_cause l s =
  if l.a.node = Switch s then cause_crash_a
  else if l.b.node = Switch s then cause_crash_b
  else invalid_arg "Graph: switch not on link"

let iter_incident t node f =
  check_node t node;
  ensure_csr t;
  match node with
  | Switch s ->
    for i = t.sw_off.(s) to t.sw_off.(s + 1) - 1 do
      f t.sw_adj.(i)
    done
  | Host h ->
    for i = t.host_off.(h) to t.host_off.(h + 1) - 1 do
      f t.host_adj.(i)
    done

let fail_switch t s =
  iter_incident t (Switch s) (fun id ->
      let l = t.link_arr.(id) in
      add_cause t l (crash_cause l s))

let restore_switch t s =
  iter_incident t (Switch s) (fun id ->
      let l = t.link_arr.(id) in
      remove_cause t l (crash_cause l s))

let link_working t id = (link t id).state = Working

(* The observers below read each group's far codes and the byte table,
   never the link record. *)
let is_live live id = Bytes.get live id = '\001'

let iter_switch_neighbors t s f =
  check_switch t s;
  ensure_csr t;
  let adj = t.sw_adj and far = t.sw_far and live = t.live in
  for i = t.sw_off.(s) to t.sw_off.(s + 1) - 1 do
    let o = far.(i) and id = adj.(i) in
    if o >= 0 && is_live live id then f o id
  done

let iter_hosts_of_switch t s f =
  check_switch t s;
  ensure_csr t;
  let adj = t.sw_adj and far = t.sw_far and live = t.live in
  for i = t.sw_off.(s) to t.sw_off.(s + 1) - 1 do
    let o = far.(i) and id = adj.(i) in
    if o < 0 && is_live live id then f (-o - 1) id
  done

let iter_host_links t h f =
  check_host t h;
  ensure_csr t;
  let adj = t.host_adj and far = t.host_far and live = t.live in
  for i = t.host_off.(h) to t.host_off.(h + 1) - 1 do
    let o = far.(i) and id = adj.(i) in
    if o >= 0 && is_live live id then f o id
  done

let first_host_link t h =
  check_host t h;
  ensure_csr t;
  let found = ref (-1) and i = ref t.host_off.(h) in
  while !found < 0 && !i < t.host_off.(h + 1) do
    let id = t.host_adj.(!i) in
    if t.host_far.(!i) >= 0 && is_live t.live id then found := id;
    incr i
  done;
  !found

let switch_degree t s =
  check_switch t s;
  ensure_csr t;
  let n = ref 0 in
  for i = t.sw_off.(s) to t.sw_off.(s + 1) - 1 do
    if t.sw_far.(i) >= 0 && is_live t.live t.sw_adj.(i) then incr n
  done;
  !n

let switch_link t s s' =
  check_switch t s;
  ensure_csr t;
  let found = ref (-1) and i = ref t.sw_off.(s) in
  while !found < 0 && !i < t.sw_off.(s + 1) do
    let id = t.sw_adj.(!i) in
    if s' >= 0 && t.sw_far.(!i) = s' && is_live t.live id then found := id;
    incr i
  done;
  if !found < 0 then None else Some !found

(* The search loop of [Paths.route], here so that it can read the CSR
   arrays, bound once, with no call per neighbor: [usable] is called
   only when given, and only for an undiscovered switch over a working
   link, in the neighbor order of [iter_switch_neighbors]. The array
   annotations matter: left polymorphic, [seen.(o) <> stamp] would be
   a call to the generic comparison. *)
let bfs_route ?usable t ~src ~dst ~(seen : int array) ~(stamp : int)
    ~(prev : int array) ~(via : int array) ~(queue : int array) =
  ensure_csr t;
  let off = t.sw_off and adj = t.sw_adj and far = t.sw_far and live = t.live in
  seen.(src) <- stamp;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail && seen.(dst) <> stamp do
    let s = queue.(!head) in
    incr head;
    for i = off.(s) to off.(s + 1) - 1 do
      let o = far.(i) in
      if o >= 0 && seen.(o) <> stamp then begin
        let id = adj.(i) in
        if
          is_live live id
          && match usable with None -> true | Some u -> u id
        then begin
          seen.(o) <- stamp;
          prev.(o) <- s;
          via.(o) <- id;
          queue.(!tail) <- o;
          incr tail
        end
      end
    done
  done;
  seen.(dst) = stamp

(* CSR groups are already in (other, link) order, so collecting
   front-to-back and reversing once reproduces the sorted lists. *)
let collect iter =
  let acc = ref [] in
  iter (fun a b -> acc := (a, b) :: !acc);
  List.rev !acc

let switch_neighbors t s = collect (iter_switch_neighbors t s)
let host_links t h = collect (iter_host_links t h)
let hosts_of_switch t s = collect (iter_hosts_of_switch t s)

let reachable_switches t start =
  if t.n_switches = 0 then 0
  else begin
    let seen = Array.make t.n_switches false in
    let queue = Queue.create () in
    seen.(start) <- true;
    Queue.add start queue;
    let count = ref 0 in
    while not (Queue.is_empty queue) do
      let s = Queue.pop queue in
      incr count;
      iter_switch_neighbors t s (fun s' _ ->
          if not seen.(s') then begin
            seen.(s') <- true;
            Queue.add s' queue
          end)
    done;
    !count
  end

let switch_connected t =
  t.n_switches = 0 || reachable_switches t 0 = t.n_switches

(* Snapshots. A graph serializes as its construction parameters plus
   the per-link records; derived state (the byte table, CSR) is
   rebuilt on restore, and the version counter is carried verbatim so
   version-keyed caches (Lifecycle's path cache) stay correctly keyed
   across a restore. Canonical by construction: links are written in
   link-id order from the dense prefix. *)

let snapshot_section = "topo-graph"
let snapshot_version = 1

module Snap = Netsim.Snapshot

let node_code = function Switch s -> (0, s) | Host h -> (1, h)

let write_endpoint w (e : endpoint) =
  let kind, id = node_code e.node in
  Snap.W.int w kind;
  Snap.W.int w id;
  Snap.W.int w e.port

let save t =
  Snap.make ~name:snapshot_section ~version:snapshot_version (fun w ->
      Snap.W.int w t.sw_ports;
      Snap.W.int w t.host_ports;
      Snap.W.int w t.version;
      Snap.W.int_array w (Array.sub t.sw_used 0 t.n_switches);
      Snap.W.int_array w (Array.sub t.host_used 0 t.n_hosts);
      Snap.W.int w t.n_links;
      for i = 0 to t.n_links - 1 do
        let l = t.link_arr.(i) in
        write_endpoint w l.a;
        write_endpoint w l.b;
        Snap.W.int w l.latency;
        Snap.W.int w l.fail_causes
      done)

let all_causes = cause_explicit lor cause_crash_a lor cause_crash_b

let restore section =
  Snap.read section ~name:snapshot_section ~version:snapshot_version (fun r ->
      let sw_ports = Snap.R.int r in
      let host_ports = Snap.R.int r in
      let version = Snap.R.int r in
      let sw_used = Snap.R.int_array r in
      let host_used = Snap.R.int_array r in
      let n_switches = Array.length sw_used in
      let n_hosts = Array.length host_used in
      let n_links = Snap.R.int r in
      if sw_ports < 0 || host_ports < 0 || n_links < 0 || version < 0 then
        Snap.R.corrupt "Graph: negative header field";
      let read_endpoint () =
        let kind = Snap.R.int r in
        let id = Snap.R.int r in
        let port = Snap.R.int r in
        let node =
          match kind with
          | 0 ->
            if id < 0 || id >= n_switches then
              Snap.R.corrupt "Graph: endpoint switch id out of range";
            Switch id
          | 1 ->
            if id < 0 || id >= n_hosts then
              Snap.R.corrupt "Graph: endpoint host id out of range";
            Host id
          | _ -> Snap.R.corrupt "Graph: bad endpoint kind"
        in
        if port < 0 then Snap.R.corrupt "Graph: negative port";
        { node; port }
      in
      (* An explicit loop (not Array.init): the payload reads must
         happen in link-id order. *)
      let rev_links = ref [] in
      for link_id = 0 to n_links - 1 do
        let a = read_endpoint () in
        let b = read_endpoint () in
        let latency = Snap.R.int r in
        let fail_causes = Snap.R.int r in
        if latency < 0 then Snap.R.corrupt "Graph: negative latency";
        if fail_causes land lnot all_causes <> 0 then
          Snap.R.corrupt "Graph: unknown fail cause bits";
        rev_links :=
          {
            link_id;
            a;
            b;
            latency;
            state = (if fail_causes = 0 then Working else Dead);
            fail_causes;
          }
          :: !rev_links
      done;
      let link_arr = Array.of_list (List.rev !rev_links) in
      let live = Bytes.make n_links '\000' in
      let t =
        {
          sw_ports;
          host_ports;
          n_switches;
          sw_used;
          n_hosts;
          host_used;
          n_links;
          link_arr;
          live;
          version;
          csr_valid = false;
          sw_off = [| 0 |];
          sw_adj = [||];
          sw_far = [||];
          host_off = [| 0 |];
          host_adj = [||];
          host_far = [||];
        }
      in
      Array.iter
        (fun l -> set_live t l.link_id (l.fail_causes = 0))
        link_arr;
      t)

let pp fmt t =
  Format.fprintf fmt "@[<v>topology: %d switches, %d hosts, %d links@,"
    t.n_switches t.n_hosts t.n_links;
  for i = 0 to t.n_links - 1 do
    let l = t.link_arr.(i) in
    if l.state = Working then
      Format.fprintf fmt "  %a.%d -- %a.%d (%a)@," pp_node l.a.node l.a.port
        pp_node l.b.node l.b.port Netsim.Time.pp l.latency
  done;
  Format.fprintf fmt "@]"

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "graph an2 {\n  layout=neato;\n  overlap=false;\n";
  for s = 0 to t.n_switches - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  s%d [shape=box, style=filled, fillcolor=lightblue];\n" s)
  done;
  for h = 0 to t.n_hosts - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  h%d [shape=ellipse, fontsize=10];\n" h)
  done;
  for i = 0 to t.n_links - 1 do
    let l = t.link_arr.(i) in
    let name = function Switch s -> Printf.sprintf "s%d" s | Host h -> Printf.sprintf "h%d" h in
    let attrs =
      match l.state with
      | Working -> ""
      | Dead -> " [style=dashed, color=red]"
    in
    Buffer.add_string buf
      (Printf.sprintf "  %s -- %s%s;\n" (name l.a.node) (name l.b.node) attrs)
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
