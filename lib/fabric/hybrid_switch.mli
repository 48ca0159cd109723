(** The full AN2 switch data path (paper §4): guaranteed and
    best-effort traffic sharing one crossbar, slot-accurately.

    Each time slot:
    - connections the frame schedule assigns to this slot transmit a
      cell of their guaranteed circuit if one is buffered; a scheduled
      connection with nothing to send releases both its ports;
    - the remaining input/output ports are matched for best-effort
      cells by parallel iterative matching.

    So guaranteed traffic is never disturbed by best-effort load, and
    best-effort traffic gets exactly the slots reserved-but-idle or
    never reserved — the two paper claims this model lets us measure
    with real queues rather than schedule geometry (cf. E16 vs E22).

    The rule lives in one slot kernel, {!run_slot}, which this
    module's switch model and {!An2.Netrun}'s per-switch slot both
    call: E22 and E28 measure the same switch. *)

(** {1 Slot kernel}

    The kernel works on int {e flow codes} that the caller chooses; it
    never looks inside a flow. A port pair is written
    [input * ports + output]. *)

type scratch
(** Per-slot working state: port occupancy, the request bitset, PIM
    scratch and the eligible-flow list. One scratch serves any number
    of switches run one after another. *)

val scratch : ports:int -> max_be:int -> scratch
(** Scratch for switches of [ports] ports with at most [max_be]
    best-effort flows each. With [max_be = 0] the matching state is
    empty, so switches wider than a request bitset still run. *)

(** What the caller supplies, built once and not per slot. *)
type flows = {
  ready : int -> bool;
      (** a guaranteed flow has a cell to send *)
  be_pair : int -> int;
      (** a best-effort flow's port pair, or [-1] when it cannot send
          (no cell or, in {!An2.Netrun}, no credit) *)
  transmit : int -> unit;
      (** send the flow's head cell; called once per transmission,
          guaranteed flows first, then best effort in input order *)
}

val run_slot :
  scratch ->
  flows ->
  schedule:Frame.Schedule.t ->
  slot:int ->
  gflows:int array array ->
  grr:int array ->
  be_flows:int array ->
  rng:Netsim.Rng.t ->
  unit
(** One slot.
    - {b Guaranteed pass.} For each input, the connection
      [schedule] gives it at [slot mod frame]; [gflows.(pair)] lists
      the pair's guaranteed flows and [grr.(pair)] is their
      round-robin cursor. The first ready flow from the cursor
      transmits and takes both ports; with none ready both ports stay
      free for best effort. [gflows = [||]] skips the pass.
    - {b Best-effort pass.} Each of [be_flows] whose pair is on ports
      no guaranteed cell took raises a request; 3 PIM iterations draw
      from [rng]; for each matched pair its ([slot] mod count)-th
      eligible flow, in [be_flows] order, transmits.

    RNG rule: only PIM draws, and with no eligible best-effort flow
    the matching is skipped, so [rng] is left untouched. *)

(** {1 Switch model} *)

type t

val create : rng:Netsim.Rng.t -> schedule:Frame.Schedule.t -> unit -> t
(** A switch with one guaranteed and one best-effort queue per port
    pair: flow code [p] is pair [p]'s guaranteed queue, [n * n + p]
    its best-effort queue. *)

val model : t -> Model.t
(** Best-effort side as a standard {!Model} (inject/step/occupancy) so
    the {!Harness} drives it; call {!inject_guaranteed} separately for
    reserved traffic. The [slot] passed to [step] indexes the frame
    cyclically. *)

val inject_guaranteed : t -> input:int -> output:int -> slot:int -> unit
(** Queue a guaranteed cell for the (input, output) reservation. *)

val guaranteed_delivered : t -> int
val guaranteed_backlog : t -> int

val be_transmissions_in_reserved_slots : t -> int
(** Best-effort cells that used a reserved-but-idle connection's slot —
    the §4 "best-effort cells can use an allocated slot if no cell from
    the scheduled virtual circuit is present". *)
