(** Buffer-wait deadlock testbed (paper §5).

    A slotted network simulation in which every directed link owns a
    finite downstream buffer pool. Three buffer/routing disciplines
    are compared:

    - [Shared_fifo] with unrestricted shortest routes: a cell holds a
      buffer upstream while waiting for one downstream, FIFO order, so
      a cycle of full buffers wedges permanently — the AN1 hazard;
    - [Shared_fifo] with up*/down* routes: the orientation forbids
      dependency cycles, so the same load cannot deadlock;
    - [Per_vc] buffers (the AN2 design): each circuit's buffers are
      private, a circuit's links form a simple path, no deadlock even
      with unrestricted routes.

    Every circuit offers one cell per slot, so the buffers fill as
    fast as the links allow. *)

type buffering =
  | Shared_fifo of int  (** buffer pool capacity per directed link *)
  | Per_vc of int  (** private buffers per circuit per directed link *)

type routing =
  | Shortest
  | Updown

type params = {
  buffering : buffering;
  routing : routing;
  circuits : int;  (** concurrent circuits with random endpoints *)
  slots : int;
  seed : int;
}

val default_params : params

type result = {
  deadlocked : bool;
  deadlock_slot : int option;  (** first slot with permanent zero progress *)
  delivered : int;
  stranded : int;  (** cells still buffered at the end *)
}

val run : ?obs:Obs.Sink.t -> Topo.Graph.t -> params -> result
(** Raises [Invalid_argument] if the topology has under two
    switches.

    With an enabled [obs] sink (default {!Obs.Sink.null}) the run
    counts injected/delivered cells and deadlock-detector activations
    (a full link scan that moved nothing while cells remain buffered),
    gauges buffered cells, and traces a per-slot buffered-cells
    counter track plus a [deadlock-detected] instant. Timestamps are
    slot numbers. *)
