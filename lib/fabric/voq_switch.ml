type scheduler =
  | Pim of int
  | Islip of int
  | Greedy_random
  | Maximum

(* The slot loop is allocation-free in steady state: the request
   matrix is maintained incrementally as queues transition between
   empty and non-empty (no N^2 probe per slot), the outcome and
   scheduler scratch are preallocated, and the VOQs are ring buffers.
   [step] still conses its departure list; [step_count] avoids even
   that. Observability probes are guarded by one immutable bool so the
   disabled path stays allocation-free. *)
let create_observed ~obs ~rng ~n ~scheduler ~on_transfer =
  let dummy = Cell.make ~input:0 ~output:0 ~arrival:0 in
  (* voq.(i).(o): cells at input i waiting for output o. *)
  let voq = Array.init n (fun _ -> Array.init n (fun _ -> Cellq.create ~dummy)) in
  let req = Matching.Request.create n in
  let outcome = Matching.Outcome.empty n in
  let buffered = ref 0 in
  let obs_on = obs.Obs.Sink.enabled in
  let c_injected = Obs.Sink.counter obs "fabric.cells.injected" in
  let c_transferred = Obs.Sink.counter obs "fabric.cells.transferred" in
  let h_iters = Obs.Sink.histogram obs "fabric.match.iterations" in
  let h_matched = Obs.Sink.histogram obs "fabric.match.size" in
  let per_input = Array.make n 0 in
  let g_port =
    Array.init n (fun i ->
        Obs.Sink.gauge obs (Printf.sprintf "fabric.port%02d.voq.occupancy" i))
  in
  let schedule =
    match scheduler with
    | Pim iterations ->
      let st = Matching.Pim.create n in
      fun () -> Matching.Pim.run_into st ~rng req ~iterations outcome
    | Islip iterations ->
      let st = Matching.Islip.create n in
      fun () -> Matching.Islip.run_into st req ~iterations outcome
    | Greedy_random ->
      let st = Matching.Greedy.create n in
      (* Pass the option preallocated: [~rng:rng] would box a fresh
         [Some] on every slot. *)
      let rng_opt = Some rng in
      fun () -> Matching.Greedy.run_into st ?rng:rng_opt req outcome
    | Maximum ->
      let st = Matching.Hopcroft_karp.create n in
      fun () -> Matching.Hopcroft_karp.run_into st req outcome
  in
  let inject (cell : Cell.t) =
    let q = voq.(cell.input).(cell.output) in
    if Cellq.is_empty q then Matching.Request.set req cell.input cell.output true;
    Cellq.push q cell;
    incr buffered;
    if obs_on then begin
      per_input.(cell.input) <- per_input.(cell.input) + 1;
      Obs.Metrics.Counter.incr c_injected
    end
  in
  let transfer ~slot i o =
    let q = voq.(i).(o) in
    let cell = Cellq.pop q in
    if Cellq.is_empty q then Matching.Request.set req i o false;
    decr buffered;
    if obs_on then begin
      per_input.(i) <- per_input.(i) - 1;
      Obs.Metrics.Counter.incr c_transferred
    end;
    on_transfer cell ~slot;
    cell
  in
  (* Per-slot scheduler observations: iteration count and match size
     histograms, a buffered-cells counter track, per-port occupancy
     gauges. Runs after [schedule ()], before transfers. *)
  let observe ~slot =
    Obs.Histogram.add h_iters
      (float_of_int outcome.Matching.Outcome.iterations_used);
    Obs.Histogram.add h_matched
      (float_of_int (Matching.Outcome.pairs outcome));
    Obs.Trace.counter obs.Obs.Sink.trace ~name:"fabric.buffered" ~cat:"fabric"
      ~ts:slot ~v:!buffered;
    for i = 0 to n - 1 do
      Obs.Metrics.Gauge.set g_port.(i) (float_of_int per_input.(i))
    done
  in
  let step ~slot =
    schedule ();
    if obs_on then observe ~slot;
    let departed = ref [] in
    for i = 0 to n - 1 do
      let o = outcome.Matching.Outcome.match_of_input.(i) in
      if o >= 0 then departed := transfer ~slot i o :: !departed
    done;
    !departed
  in
  let step_count ~slot =
    schedule ();
    if obs_on then observe ~slot;
    let count = ref 0 in
    for i = 0 to n - 1 do
      let o = outcome.Matching.Outcome.match_of_input.(i) in
      if o >= 0 then begin
        ignore (transfer ~slot i o);
        incr count
      end
    done;
    !count
  in
  let occupancy () = !buffered in
  { Model.n; inject; step; step_count; occupancy }

let create ~rng ~n ~scheduler =
  create_observed ~obs:Obs.Sink.null ~rng ~n ~scheduler
    ~on_transfer:(fun _ ~slot:_ -> ())
