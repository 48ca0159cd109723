let expand (p : An2.Workload.profile) ~hosts =
  let base = An2.Workload.expand { p with burst_rate = 0.0 } ~hosts in
  let bursts = An2.Workload.expand { p with base_rate = 0.0 } ~hosts in
  List.stable_sort
    (fun (x : An2.Workload.arrival) (y : An2.Workload.arrival) -> compare x.at y.at)
    (base @ bursts)
