(* Heartbeat driver for the [Obs.Flight] recorder: a re-arming
   simulation-time callback that snapshots a metrics view every
   [every] nanoseconds. The recorder itself is a passive accumulator
   in the obs library; the decision of *when* to snapshot needs a
   cluster, so it lives here.

   The driver touches no simulation state, so a run's output is
   unchanged by attaching one: heartbeats are barrier actions, which
   only trim conservative windows — never reorder engine dispatch. *)

let attach_cluster cl ~every ~horizon ~flight ~label ~snapshot =
  if every < 1 then invalid_arg "Heartbeat: every must be >= 1";
  if horizon < 0 then invalid_arg "Heartbeat: negative horizon";
  let rec arm at =
    if at <= horizon then
      Cluster.at_barrier cl ~at (fun () ->
          Obs.Flight.record flight ~now:at ~label (snapshot ());
          arm (at + every))
  in
  arm every
