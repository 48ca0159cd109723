(** The integrated AN2 network: switches with per-line-card routing
    tables, virtual circuits, and per-switch frame schedules.

    This module owns the control-plane state (paper §2): which
    circuits exist, the path and routing-table entries of each, and
    each switch's guaranteed-traffic schedule. The data plane is
    driven by {!Netrun}; admission for guaranteed circuits is
    {!Bandwidth_central}. *)

type traffic_class =
  | Best_effort
  | Guaranteed of int  (** reserved cells per frame *)

type vc = {
  vc_id : int;
  src_host : int;
  dst_host : int;
  cls : traffic_class;
  mutable switches : int list;  (** switch path, source side first *)
  mutable links : int list;
      (** link ids: host link, inter-switch links, host link *)
  mutable paged_out : bool;
}

type t

val create : ?frame:int -> Topo.Graph.t -> t
(** [frame] is the guaranteed-traffic frame length in cell slots
    (paper: 1024; tests use smaller). The graph is shared, not
    copied: failures applied to it are visible here. *)

val graph : t -> Topo.Graph.t
val frame_length : t -> int

val switch_schedule : t -> int -> Frame.Schedule.t
(** The guaranteed-traffic frame schedule of a switch, indexed by
    crossbar port. *)

val find_route :
  t -> src_host:int -> dst_host:int -> (int list * int list, string) result
(** Shortest route between the hosts' working attachments: the switch
    path and the links the search crossed, host links included. AN2
    needs no up*/down* restriction for best-effort circuits because
    per-VC buffers already prevent deadlock (paper §5). *)

val route_between :
  t -> src_host:int -> dst_host:int ->
  (src:int -> dst:int -> tail:int list -> (int list * int list) option) ->
  (int list * int list, string) result
(** The route a search ({!Topo.Paths.route_links} or
    {!Topo.Updown.route_links}) finds between the hosts' working
    attachment switches, with the two host links at its ends. *)

val setup_best_effort : t -> src_host:int -> dst_host:int -> (vc, string) result
(** Create a best-effort circuit: chooses the route and installs a
    routing-table entry at every switch on it (the signaling-cell
    processing of §2). *)

val register_best_effort : t -> src_host:int -> dst_host:int -> vc
(** Allocate a best-effort circuit identity with no route and no table
    entries (it starts paged out). Used by {!Lifecycle}, which installs
    entries hop by hop as its signaling crawl progresses rather than
    atomically. *)

val assign_route : t -> vc -> switches:int list -> links:int list -> unit
(** Point the circuit at a path (clearing [paged_out]) without touching
    any routing table — entry installation is the caller's job, e.g.
    one switch at a time via {!install_hop}. *)

val install_hop :
  t -> vc -> switch:int -> in_link:int -> out_link:int -> unit
(** Install the circuit's routing-table entry at one switch of its
    current path: the hop entering [switch] over [in_link] and leaving
    over [out_link] — one hop of setup-cell processing. The caller
    holds the hop's links ({!Lifecycle}'s crawl carries its path as
    arrays), so nothing searches the path. *)

val uninstall_entry : t -> vc -> switch:int -> unit
(** Drop the circuit's entry at one switch, if present — one hop of a
    crankback release. *)

val remove_entry : t -> switch:int -> vc_id:int -> unit
(** Drop an entry by raw id — for sweeping orphans whose circuit no
    longer exists. *)

val table_bindings : t -> int -> (int * (int * int)) list
(** All [(vc_id, (in_link, out_link))] entries currently installed at a
    switch, sorted — including orphans whose circuit is gone, which is
    what {!Lifecycle.gc} sweeps for. *)

val register_guaranteed :
  ?install:bool ->
  t ->
  src_host:int ->
  dst_host:int ->
  cells:int ->
  switches:int list ->
  links:int list ->
  vc
(** Record a guaranteed circuit whose route was chosen by
    {!Bandwidth_central} and install its table entries ([install],
    default [true]; {!Bandwidth_central.Service} passes [false] when
    batching table writes and installs later via {!install}). The
    caller is responsible for capacity and schedule bookkeeping. *)

val teardown : t -> vc -> unit
(** Remove the circuit's table entries (and schedule reservations, for
    a guaranteed circuit). *)

val vc_count : t -> int
val find_vc : t -> int -> vc option

val iter_vcs : t -> (vc -> unit) -> unit
(** Iterate over all live circuits (order unspecified). *)

val set_route :
  t -> vc -> switches:int list -> links:int list -> (unit, string) result
(** Move a best-effort circuit onto a searched route (links as in
    {!vc}; refused if one is dead): the mechanics behind both failure
    re-routing and load-balancing moves (§2). *)

val next_hop : t -> switch:int -> vc_id:int -> (int * int) option
(** [(out_link, in_link)] table entry at a switch, if the circuit is
    routed through it. *)

val reroute : t -> vc -> (unit, string) result
(** Recompute the circuit's path on the current (post-failure)
    topology and reinstall table entries — the §2 optimization that
    repairs circuits without a global disruption. Only for
    best-effort circuits; guaranteed circuits must go back through
    bandwidth central. *)

val page_out : t -> vc -> unit
(** Reclaim the idle circuit's switch resources; its table entries are
    dropped but the circuit identity survives (§2). Best-effort
    only: a guaranteed circuit's schedule slots belong to bandwidth
    central (raises [Invalid_argument]). *)

val page_in : t -> vc -> (unit, string) result
(** Re-establish a paged-out circuit, as if a fresh setup cell had
    arrived. *)

(** Internal helpers shared with {!Bandwidth_central}. *)

val host_attachment : t -> int -> (int * int, string) result
(** Working [(switch, link_id)] attachment of a host. *)

val links_of_switch_path :
  t -> src_host:int -> dst_host:int -> int list -> (int list, string) result
(** Expand a hand-built switch path to the full link sequence, host
    links included ({!Topo.Paths.links_of_switches}). *)

val install : t -> vc -> unit
(** (Re)install routing-table entries for the circuit's current
    path. *)

val uninstall : t -> vc -> unit

exception Missing_cell of { switch : int; input : int; output : int }
(** A release found fewer schedule cells of a port pair than it was
    asked to remove: the cells were already released (a double
    release) or never placed. Cells removed before the raise stay
    removed. *)

val remove_schedule_entries : t -> vc -> int -> unit
(** [remove_schedule_entries t vc cells]: take [cells] cells per frame
    out of the schedule of every switch on the circuit's current path
    (the reverse of {!Bandwidth_central}'s placement). {!teardown} does
    this for guaranteed circuits; a reroute does it once it has a new
    path. Raises {!Missing_cell} when a switch's schedule holds fewer
    than [cells] cells of the circuit's port pair. *)

val port_at : t -> int -> int -> int
(** [port_at t s lid]: crossbar port of switch [s] where link [lid]
    terminates. *)

val table_entries : vc -> (int * (int * int)) list
(** [(switch, (in_link, out_link))] along the circuit's path, as a
    fresh list. *)

val iter_hops :
  ('a -> 'b -> int -> int -> int -> unit) -> 'a -> 'b -> vc -> unit
(** [iter_hops f x y vc] calls [f x y s in_link out_link] at each hop
    of the circuit's path, source side first: the pairs
    {!table_entries} lists, without building the list. [f] gets its
    context as [x] and [y] instead of capturing it, so a closed [f]
    walks the path without allocating. [install], [uninstall],
    [remove_schedule_entries] and {!Bandwidth_central}'s schedule
    placement all walk it this way. *)

(** {1 Snapshots} *)

val save : t -> Netsim.Snapshot.section
(** Serialize circuits, routing tables and frame schedules in
    canonical order (ascending vc ids, sorted bindings, sparse
    schedule triples), so equal state yields equal bytes regardless
    of hash-table history. The topology is saved separately with
    {!Topo.Graph.save}; reservations with {!Bandwidth_central}. *)

val restore : graph:Topo.Graph.t -> Netsim.Snapshot.section -> t
(** Rebuild a network over an already-restored graph. Raises
    {!Netsim.Snapshot.Corrupt} on damage (including schedule entries
    that are inadmissible against the declared frame). *)
