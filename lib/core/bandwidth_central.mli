(** "Bandwidth central" (paper §4): the network service that resolves
    all guaranteed-bandwidth requests.

    Because every reservation goes through it, it knows the unreserved
    capacity of each link. A request is granted when some path between
    the hosts has enough headroom on every link; bandwidth central
    picks the route, then installs the reservation into the frame
    schedule of every switch on it (Slepian–Duguid insertion). As in
    the first AN2 release it is a centralized service, chosen at
    reconfiguration time; nothing in this interface would change if it
    were distributed.

    Two layers live here. The plain functions are the synchronous
    bookkeeping core (route + reserve + install, instantaneous). The
    {!Service} submodule drives that core as a {e timed} admission
    service on a {!Netsim.Engine}: reservations are owned by link-id
    range {e shards}, each a serialized processor; a request is
    coordinated by the shard its source host hashes to, escrows cells
    on foreign shards in ascending shard order (a total order, so
    cross-shard admissions cannot deadlock), and batches routing-table
    writes behind a per-shard flush timer. This is the contended
    resource the TPS bench ({!Faults.Tps}) saturates. *)

exception Underflow of { link : int; have : int; released : int }
(** A release or reroute tried to return more cells than a link holds
    — double-release or accounting corruption. Before this exception
    existed the condition was clamped with [max 0] and silently
    masked. *)

type t

type denial =
  | No_route  (** hosts disconnected *)
  | No_capacity  (** every path has a saturated link *)

val pp_denial : Format.formatter -> denial -> unit

val create : ?obs:Obs.Sink.t -> ?shards:int -> Network.t -> t
(** Link capacity is the network's frame length (cells per frame).
    [shards] (default 1) splits the link-id space into equal ranges
    for {!shard_of} and the {!Service} layer; it does not change the
    synchronous API's behaviour. With an enabled [obs] sink (default
    {!Obs.Sink.null}) admission traffic is counted under [bwc.*]:
    [requests], [granted], [denied_no_route], [denied_no_capacity],
    [releases], [reroutes] (a denied reroute also counts as a denial)
    and [underflows]. *)

val shards : t -> int

val shard_of : t -> int -> int
(** Owning shard of a link id: link-id range partition, sized from the
    link count at creation (late-added links land in the last
    shard). *)

val reserved : t -> int -> int
(** Cells per frame currently reserved on a link. *)

val headroom : t -> int -> int

val reservations : t -> (int * int) list
(** Live [(link_id, cells)] reservations, ascending by link id, zero
    entries omitted. *)

val request :
  t -> src_host:int -> dst_host:int -> cells:int -> (Network.vc, denial) result
(** Admit (or deny) a guaranteed circuit of [cells] cells per frame.
    On success the circuit's routing-table entries and per-switch
    schedule slots are installed. *)

val release : t -> Network.vc -> unit
(** Tear the circuit down and return its bandwidth. Raises
    {!Underflow} if the accounting would go negative (double
    release). *)

val reroute_after_failure : t -> Network.vc -> (unit, denial) result
(** Re-admit a guaranteed circuit whose path died: free its old
    reservations, then reserve along a fresh route, rewiring the same
    circuit record so line cards and hosts keep a single identity
    (§2's reroute-from-the-break, realized through re-admission). On
    denial the circuit is dissolved — its resources were already
    returned and it no longer exists. *)

val inject_leak : t -> link:int -> cells:int -> unit
(** Fault injection for endurance testing: silently inflate a link's
    reservation counter without touching any circuit. Invisible to
    every code path except the reserved-vs-live-circuits audit — the
    seeded slow-corruption fault the soak harness bisects to. *)

val save : t -> Netsim.Snapshot.section
(** Serialize the shard layout and reservation counters (BFS scratch
    and obs counters are not state). Canonical: equal reservations
    yield equal bytes. *)

val restore : ?obs:Obs.Sink.t -> Network.t -> Netsim.Snapshot.section -> t
(** Rebuild a core over an already-restored network. Raises
    {!Netsim.Snapshot.Corrupt} on damage, including reservation counts
    that do not match the network's link count or exceed its frame. *)

(** Sharded, engine-timed admission: bandwidth central as a service
    under load rather than an instantaneous oracle. *)
module Service : sig
  type params = {
    flush_every : Netsim.Time.t;
        (** batched-write flush period; [0] disables batching (every
            admission pays the table-write cost per entry inline) *)
  }
  (** The rest of E35's cost model is fixed, not a parameter. The
      coordinator pays 80 us to compute a capacity route, 40 us to
      validate and commit it, and 30 us per release; each foreign
      shard a cross-shard route visits pays 25 us of escrow; a
      routing-table write costs 20 us, per entry inline or per flush
      when batched, plus 2 us per entry inside a flush. *)

  val default_params : params
  (** A flush every 500 us. *)

  type stats = {
    submitted : int;
    granted : int;
    denied_no_route : int;
    denied_no_capacity : int;
    released : int;
    cross_shard : int;  (** requests whose route crossed shards *)
    escrow_conflicts : int;
        (** admissions aborted by a failed re-validation (another
            request took the headroom between route and commit) *)
    batch_flushes : int;
    batched_writes : int;  (** table entries installed by flushes *)
    worst_backlog : int;  (** deepest per-shard admission queue *)
  }

  type nonrec t

  val create :
    ?obs:Obs.Sink.t ->
    engine:Netsim.Engine.t ->
    ?shards:int ->
    Network.t ->
    params ->
    t
  (** Wraps a fresh sharded core over [net]. Additional [bwc.*]
      counters with an enabled sink: [cross_shard],
      [escrow_conflicts], [batch_flushes]. *)

  val submit :
    t ->
    src_host:int ->
    dst_host:int ->
    cells:int ->
    on_done:((Network.vc, denial) result -> unit) ->
    unit
  (** Queue an admission. [on_done] fires on the engine timeline after
      the coordinator computes the route, foreign shards escrow (in
      ascending shard order, re-validating their links' headroom), and
      the coordinator commits. A failed re-validation compensates —
      every escrowed shard's cells are returned — and denies
      [No_capacity]. With batching on, the granted circuit's
      routing-table entries install at the next flush; its schedule
      slots and reservations are in place immediately. *)

  val release : t -> Network.vc -> unit
  (** Queue a release at the circuit's coordinator. Applied only if
      the circuit still exists when the processor gets to it (a
      release racing a dissolution is dropped, not double-applied). *)

  val in_flight : t -> int
  (** Submitted admissions not yet resolved. *)

  val reserved : t -> int -> int
  val headroom : t -> int -> int
  val reservations : t -> (int * int) list
  val stats : t -> stats

  val reroute_after_failure : t -> Network.vc -> (unit, denial) result
  (** Synchronous repair of a guaranteed circuit whose path died —
      delegates to the core's {!reroute_after_failure}. Repair is a
      reconfiguration-time action driven by failure handlers, not a
      queued admission, so it bypasses the timed processors. *)

  val inject_leak : t -> link:int -> cells:int -> unit
  (** Delegates to the core's {!inject_leak}: the seeded invariant
      violation the soak harness's audits must catch. *)

  val quiescent : t -> bool
  (** No in-flight admissions, queued work, pending batched writes or
      armed flush timers — the only state in which {!save} is legal. *)

  val save : t -> Netsim.Snapshot.section
  (** Serialize the core's reservations plus the per-shard processor
      horizons and cumulative stats. Raises [Invalid_argument] if
      [not (quiescent t)]. *)

  val restore :
    ?obs:Obs.Sink.t ->
    engine:Netsim.Engine.t ->
    Network.t ->
    params ->
    Netsim.Snapshot.section ->
    t
  (** Rebuild the service over an already-restored network and engine.
      Raises {!Netsim.Snapshot.Corrupt} on damage. *)
end
