(** Multicast virtual circuits (paper §1 mentions AN2 has them;
    this module supplies the design the paper leaves undiscussed).

    A multicast circuit connects one source host to a set of
    destination hosts through a tree of switches. Each switch's
    routing entry maps the circuit to a *set* of output links; the
    line cards replicate an arriving cell onto every one of them, so
    each cell crosses any link of the tree exactly once — the economy
    over per-destination unicast circuits grows with how much the
    destinations' paths share. *)

type t = {
  mc_id : int;
  source_host : int;
  dest_hosts : int list;
  root : int;  (** source's attachment switch *)
  tree_links : int list;  (** switch-to-switch links of the tree *)
  source_link : int;  (** the source host's attachment link *)
  host_links : int list;  (** source + destination attachments *)
  (* forwarding: switch -> (in_link, out_links) *)
  table : (int, int * int list) Hashtbl.t;
}

val build :
  Network.t -> source_host:int -> dest_hosts:int list -> (t, string) result
(** Build the shortest-path tree from the source's attachment switch
    to every destination's attachment (a standard approximation of the
    Steiner minimum; exact Steiner is NP-hard and the paper's switches
    compute routes from shortest-path information anyway). Fails if
    the group is empty, names the source or names a host twice, or if
    any destination is unreachable. *)

val link_transmissions : t -> int
(** Links (host links included) one source cell crosses: the tree
    cost. *)

val unicast_transmissions :
  Network.t -> source_host:int -> dest_hosts:int list -> (int, string) result
(** Total links crossed if each destination had its own unicast
    circuit over its shortest path — the baseline the tree beats.
    Fails, as {!build} does, on a group that names the source or names
    a host twice. *)

val rebuild_after_failure : Network.t -> t -> (t, string) result
(** Recompute the tree on the current topology, as circuit re-routing
    (§2) would after a reconfiguration. *)

type delivery = {
  per_dest_latency_us : (int * float) list;  (** host -> mean latency *)
  delivered_all : bool;  (** every destination got every cell *)
  cells_sent : int;
  link_cell_crossings : int;  (** total transmissions, all links *)
}

val simulate :
  Network.t -> t -> rate:float -> duration:Netsim.Time.t -> delivery
(** Event-driven delivery down the tree: the source emits cells at
    [rate] (fraction of link rate); switches replicate after the 2 us
    crossbar delay; each link adds its latency. The tree is assumed to
    have dedicated slots (multicast guaranteed traffic), so there is
    no queueing — the measurement is replication correctness, latency
    skew between destinations, and link economy. *)
