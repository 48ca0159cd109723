(** Network topology: switches and hosts connected by full-duplex links.

    Mirrors the AN1/AN2 physical model of the paper: each switch has a
    fixed number of ports, each host has a (small) number of controller
    ports, and links join two free ports. Links carry a latency and a
    working/dead state; dead links are invisible to the switch-level
    algorithms (spanning tree, routing, reconfiguration). *)

type node_id =
  | Switch of int
  | Host of int

val pp_node : Format.formatter -> node_id -> unit

type endpoint = { node : node_id; port : int }

type link_state =
  | Working
  | Dead

type link = {
  link_id : int;
  a : endpoint;
  b : endpoint;
  latency : Netsim.Time.t;
  mutable state : link_state;
      (** Maintained by the fail/restore operations; read it freely but
          do not write it — it is derived from [fail_causes]. *)
  mutable fail_causes : int;
      (** Bitmask of the independent reasons the link is dead (explicit
          [fail_link], crash of either endpoint switch). [0] iff
          [state = Working]. Owned by the fail/restore operations. *)
}

type t

val create : ?ports_per_switch:int -> ?ports_per_host:int -> unit -> t
(** Defaults: 16 ports per switch (the AN2 crossbar), 2 per host
    (dual-homing as in Figure 1). *)

val add_switch : t -> int
(** Returns the new switch's id (consecutive from 0). *)

val add_switches : t -> int -> unit
(** Add [n] switches. *)

val add_host : t -> int
(** Returns the new host's id (consecutive from 0). *)

val connect : ?latency:Netsim.Time.t -> t -> node_id -> node_id -> int
(** [connect t n1 n2] joins the first free port of each node; returns
    the link id. Default latency is 1 us (a few hundred metres of
    fibre plus line-card serialization). Raises [Failure] if either
    node has no free port. *)

val switch_count : t -> int
val host_count : t -> int
val link_count : t -> int
val ports_per_switch : t -> int

val link : t -> int -> link
(** Lookup by link id. Raises [Invalid_argument] on bad ids. *)

val links : t -> link list
(** All links, in creation order. *)

val fail_link : t -> int -> unit
(** Kill one link. Failures are {e cause-tracked}: an explicit link
    fault and a crash of either endpoint switch are independent causes,
    and the link works again only once every cause has been cleared, so
    overlapping failures compose — [fail_link l; fail_switch s;
    restore_switch s] leaves [l] dead. Idempotent per cause. *)

val restore_link : t -> int -> unit
(** Clear the explicit fault on a link. The link returns to [Working]
    only if neither endpoint switch is also down. *)

val fail_switch : t -> int -> unit
(** Kill every link attached to the switch (the "pull the plug" demo
    of the paper's introduction), recording the crash as a per-link
    cause distinct from explicit link faults. Idempotent. *)

val restore_switch : t -> int -> unit
(** Clear this switch's crash cause from its incident links. Links
    failed independently — explicitly or by the other endpoint's crash
    — stay dead. *)

val link_working : t -> int -> bool
(** [link_working t id] is [(link t id).state = Working]. *)

val switch_neighbors : t -> int -> (int * int) list
(** [switch_neighbors t s] lists [(neighbor_switch, link_id)] over
    working switch-to-switch links. *)

val host_links : t -> int -> (int * int) list
(** [host_links t h] lists [(switch, link_id)] over working links from
    host [h] to switches. *)

val hosts_of_switch : t -> int -> (int * int) list
(** [(host, link_id)] pairs of working host attachments at a switch. *)

val iter_switch_neighbors : t -> int -> (int -> int -> unit) -> unit
(** [iter_switch_neighbors t s f] applies [f neighbor link_id] over
    working switch-to-switch links at [s], in the same (neighbor,
    link) order as {!switch_neighbors}, without allocating. *)

val iter_hosts_of_switch : t -> int -> (int -> int -> unit) -> unit
(** [f host link_id] over working host attachments at a switch, in
    {!hosts_of_switch} order, without allocating. *)

val iter_host_links : t -> int -> (int -> int -> unit) -> unit
(** [f switch link_id] over working links at a host, in {!host_links}
    order, without allocating. *)

val first_host_link : t -> int -> int
(** The link id of the first {!host_links} entry of a host — its
    working attachment to the lowest-numbered switch — or [-1] when it
    has none; without allocating. *)

val switch_degree : t -> int -> int
(** Number of working switch-to-switch links at a switch (counting
    parallel links), without allocating. *)

val switch_link : t -> int -> int -> int option
(** [switch_link t s s'] is the lowest-id working link joining the two
    switches, if any — O(degree of [s]); allocates only the [Some]. *)

val bfs_route :
  ?usable:(int -> bool) ->
  t ->
  src:int ->
  dst:int ->
  seen:int array ->
  stamp:int ->
  prev:int array ->
  via:int array ->
  queue:int array ->
  bool
(** The search loop of {!Paths.route}, which owns its scratch; call
    that instead. Breadth-first from [src] over working switch-to-switch
    links, in {!iter_switch_neighbors} order, until [dst] is
    discovered: each discovered switch [s] gets [seen.(s) <- stamp],
    its predecessor in [prev.(s)] and the link it was discovered over
    in [via.(s)], and [queue] (at least
    {!switch_count} long) holds the frontier. [usable], when given,
    filters the links crossed; it is called only for a working link to
    an undiscovered switch. Returns whether [dst] was discovered.
    Allocates nothing. *)

val version : t -> int
(** A counter bumped by every mutation (structural or fail/restore).
    Lets callers key caches of derived topology state: equal versions
    guarantee an identical graph. *)

val other_end : link -> node_id -> endpoint
(** The endpoint of the link that is not at the given node. *)

val switch_connected : t -> bool
(** Whether the working switch-to-switch subgraph is connected
    (ignoring switches that have no working links at all is NOT done:
    all switches must be mutually reachable). *)

val reachable_switches : t -> int -> int
(** Number of switches reachable from the given one over working
    links, including itself. *)

val pp : Format.formatter -> t -> unit
(** Multi-line rendering of nodes and working links. *)

val to_dot : t -> string
(** Graphviz rendering: switches as boxes, hosts as ellipses, dead
    links dashed red. Pipe into [dot -Tsvg] to draw Figure-1-style
    diagrams of any topology. *)

(** {1 Snapshots} *)

val save : t -> Netsim.Snapshot.section
(** Serialize the full graph: construction parameters, per-link
    endpoints/latency/cause bitmasks, and the version counter — so
    version-keyed caches of derived state stay correctly keyed across
    a restore. Canonical: equal graphs yield equal bytes. *)

val restore : Netsim.Snapshot.section -> t
(** Rebuild a graph from {!save}'s section. Derived state (the
    per-link working bytes, CSR adjacency) is reconstructed; raises
    {!Netsim.Snapshot.Corrupt} on damage. *)
