(* The pre-pool event engine, retained as the behavioural reference:
   a generic binary heap of closure-carrying entry records. The
   production {!Netsim.Engine} must dispatch identically (same order, same
   times, same [pending] at every step) — the differential tests in
   [test/test_engine_pool.ml] pin that, and [bench/engine_perf.ml] measures
   the speedup against this implementation rather than asserting it. *)

type event = { id : int; born : Netsim.Time.t; thunk : unit -> unit }

type t = {
  mutable clock : Netsim.Time.t;
  queue : event Mheap.t;
  mutable next_id : int;
  mutable dispatched_total : int;
  obs : Obs.Sink.t;
  c_scheduled : Obs.Metrics.Counter.t;
  c_dispatched : Obs.Metrics.Counter.t;
  g_depth : Obs.Metrics.Gauge.t;
  h_wait : Obs.Histogram.t;
}

let create ?(obs = Obs.Sink.null) () =
  {
    clock = 0;
    queue = Mheap.create ();
    next_id = 0;
    dispatched_total = 0;
    obs;
    c_scheduled = Obs.Sink.counter obs "engine.events.scheduled";
    c_dispatched = Obs.Sink.counter obs "engine.events.dispatched";
    g_depth = Obs.Sink.gauge obs "engine.queue.depth";
    h_wait = Obs.Sink.histogram obs "engine.event.wait_us";
  }

let now t = t.clock

let pending t = Mheap.length t.queue

let dispatched t = t.dispatched_total

let post_at t ~at thunk =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.post_at: time %d is in the past (now %d)" at
         t.clock);
  let id = t.next_id in
  t.next_id <- id + 1;
  Mheap.add t.queue ~prio:at { id; born = t.clock; thunk };
  if t.obs.Obs.Sink.enabled then begin
    Obs.Metrics.Counter.incr t.c_scheduled;
    Obs.Metrics.Gauge.set t.g_depth (float_of_int (pending t))
  end

let post t ~delay thunk =
  if delay < 0 then invalid_arg "Engine.post: negative delay";
  post_at t ~at:(t.clock + delay) thunk

let dispatch t at ev =
  t.clock <- at;
  t.dispatched_total <- t.dispatched_total + 1;
  if t.obs.Obs.Sink.enabled then begin
    Obs.Metrics.Counter.incr t.c_dispatched;
    Obs.Metrics.Gauge.set t.g_depth (float_of_int (pending t));
    Obs.Histogram.add t.h_wait (Netsim.Time.to_us (at - ev.born));
    Obs.Sink.span t.obs ~name:"event" ~cat:"engine" ~ts:ev.born
      ~dur:(at - ev.born) ~tid:0 ~v:ev.id
  end;
  ev.thunk ()

let step t =
  match Mheap.pop t.queue with
  | None -> false
  | Some (at, ev) ->
    dispatch t at ev;
    true

let run t = while step t do () done

let run_until t horizon =
  let continue = ref true in
  while !continue do
    match Mheap.min_prio t.queue with
    | Some at when at <= horizon ->
      (match Mheap.pop t.queue with
       | Some (at, ev) -> dispatch t at ev
       | None -> continue := false)
    | _ -> continue := false
  done;
  if horizon > t.clock then t.clock <- horizon
