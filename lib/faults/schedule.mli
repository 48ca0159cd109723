(** Declarative fault schedules.

    The paper's robustness story is about {e sustained} failure and
    recovery — flapping links the skeptic must tame, switches that
    crash and restart while other faults are still open — not a single
    hand-placed [fail_link]. A schedule describes such a scenario
    declaratively: one-shot and recurring faults, flap patterns with
    explicit up/down duty cycles, switch crash/restart pairs, timed
    control-plane loss windows, and seeded random churn.

    A schedule is first {!expand}ed into a deterministic, sorted
    timeline of primitive actions (all randomness comes from the
    schedule's own seeds, so the same schedule always produces the same
    timeline), and the timeline is then {!install}ed onto a
    {!Netsim.Engine} as timers the driver can retire, which drive the
    {!Topo.Graph} fail/restore operations — which compose under
    overlap, because link state is cause-tracked. *)

type action =
  | Fail_link of int
  | Restore_link of int
  | Fail_switch of int
  | Restore_switch of int
  | Set_control_loss of float
      (** Control-plane cells are dropped with this probability from
          now on (consumed by whoever hosts the control plane, e.g. the
          churn runner's nested reconfigurations). *)

val pp_action : Format.formatter -> action -> unit

type item =
  | At of Netsim.Time.t * action  (** one-shot *)
  | Flap of {
      link : int;
      start : Netsim.Time.t;
      until : Netsim.Time.t;
      down_for : Netsim.Time.t;  (** dead portion of each cycle *)
      up_for : Netsim.Time.t;  (** working portion of each cycle *)
    }
      (** The link dies at [start], revives [down_for] later, dies
          again [up_for] after that, and so on. Whatever the phase at
          [until], a final restore is emitted there so the scenario
          ends with the flap cleared. *)
  | Crash_restart of {
      switch : int;
      at : Netsim.Time.t;
      down_for : Netsim.Time.t;
    }  (** [Fail_switch] at [at], [Restore_switch] at [at + down_for]. *)
  | Control_loss_window of {
      from_ : Netsim.Time.t;
      until : Netsim.Time.t;
      loss : float;
    }
      (** Control-plane loss is [loss] inside the window and reset to
          0 at [until]. Windows are not meant to overlap. *)
  | Random_churn of {
      seed : int;
      start : Netsim.Time.t;
      until : Netsim.Time.t;
      rate : float;  (** faults per simulated second (Poisson) *)
      mean_downtime : Netsim.Time.t;  (** exponential time-to-repair *)
      links : int list;  (** candidate victims *)
    }
      (** Seeded Poisson link faults: victims drawn uniformly from
          [links], each failed for an exponential downtime. Repairs
          scheduled past [until] still fire (a fault is always
          eventually repaired). *)

type t = item list

val expand : t -> (Netsim.Time.t * action) list
(** The deterministic primitive timeline, sorted by time; ties keep
    the order induced by the item list. Pure: expanding twice gives
    the same timeline, which is what makes seeded churn runs
    repeatable and parallel sweeps byte-identical to sequential
    ones. *)

type driver
(** A schedule installed on an engine. *)

val install :
  engine:Netsim.Engine.t ->
  graph:Topo.Graph.t ->
  ?on_action:(Netsim.Time.t -> action -> unit) ->
  (Netsim.Time.t * action) list ->
  driver
(** Arm one engine timer per timeline entry. When a timer fires, the
    action is applied to the graph ([Set_control_loss] only updates
    {!control_loss}) and then [on_action] runs. Actions scheduled in
    the past (before [Engine.now]) are rejected with
    [Invalid_argument]. *)

val cancel : driver -> unit
(** Retire every action that has not fired yet: its timer still
    fires when due but applies nothing, so once the engine runs past
    the last retired timer the driver contributes nothing to
    [Netsim.Engine.pending] and a churn run can reach quiescence.
    Idempotent. *)

val control_loss : driver -> float
(** Current control-plane drop probability (last [Set_control_loss]
    applied; 0 initially). *)

val injected : driver -> int
(** Actions applied so far. *)

val remaining : driver -> int
(** Actions still armed. *)
