type metrics = {
  slots : int;
  offered : int;
  carried : int;
  throughput : float;
  mean_delay : float;
  p99_delay : float;
  max_delay : float;
  final_occupancy : int;
}

let pp_metrics fmt m =
  Format.fprintf fmt
    "slots=%d offered=%d carried=%d thpt=%.4f delay(mean=%.2f p99=%.2f max=%.0f) backlog=%d"
    m.slots m.offered m.carried m.throughput m.mean_delay m.p99_delay m.max_delay
    m.final_occupancy

let run ?warmup ?(obs = Obs.Sink.null) ~traffic ~model ~slots () =
  let warmup = match warmup with Some w -> w | None -> slots / 10 in
  let n = model.Model.n in
  if traffic.Traffic.n < n then
    invalid_arg "Harness.run: traffic has fewer inputs than the model";
  let offered = ref 0 and carried = ref 0 in
  let delays = Netsim.Stats.Int_distribution.create () in
  let obs_on = obs.Obs.Sink.enabled in
  let c_offered = Obs.Sink.counter obs "fabric.cells.offered" in
  let c_carried = Obs.Sink.counter obs "fabric.cells.carried" in
  let h_delay = Obs.Sink.histogram obs "fabric.cell.delay_slots" in
  let arrive ~slot ~input output =
    if slot >= warmup then incr offered;
    model.Model.inject (Cell.make ~input ~output ~arrival:slot)
  in
  for slot = 0 to warmup + slots - 1 do
    let measuring = slot >= warmup in
    (* Single patterns inject without allocating an arrival list. *)
    for input = 0 to n - 1 do
      match traffic.Traffic.gen with
      | Traffic.Single dest ->
        let output = dest ~slot ~input in
        if output >= 0 then arrive ~slot ~input output
      | Traffic.Fixed per_input -> List.iter (arrive ~slot ~input) per_input.(input)
    done;
    let departures = model.Model.step ~slot in
    if measuring then begin
      let departed = ref 0 in
      List.iter
        (fun cell ->
          incr carried;
          incr departed;
          let d = Cell.delay cell ~departure:slot in
          Netsim.Stats.Int_distribution.add delays d;
          if obs_on then Obs.Histogram.add h_delay (float_of_int d))
        departures;
      if obs_on then begin
        Obs.Metrics.Counter.set c_offered !offered;
        Obs.Metrics.Counter.set c_carried !carried;
        Obs.Sink.span obs ~name:"slot" ~cat:"fabric" ~ts:slot ~dur:1 ~tid:0
          ~v:!departed
      end
    end
  done;
  let measured = slots in
  {
    slots = measured;
    offered = !offered;
    carried = !carried;
    throughput = float_of_int !carried /. float_of_int (n * measured);
    mean_delay = Netsim.Stats.Int_distribution.mean delays;
    p99_delay = Netsim.Stats.Int_distribution.percentile delays 99.0;
    max_delay = Netsim.Stats.Int_distribution.max delays;
    final_occupancy = model.Model.occupancy ();
  }

let saturation_throughput ~rng ~make_model ~n ~slots =
  let traffic = Traffic.uniform ~rng ~n ~load:1.0 in
  let model = make_model () in
  let m = run ~traffic ~model ~slots () in
  m.throughput
