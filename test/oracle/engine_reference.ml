(* The pre-pool event engine, retained verbatim as the behavioural
   reference: a generic binary heap of closure-carrying entry records
   plus two Hashtbls tracking scheduled and cancelled ids. The
   production {!Netsim.Engine} must dispatch identically (same order, same
   times, same [pending] at every step) — the differential tests in
   [test/test_engine_pool.ml] pin that, and [bench/engine_perf.ml] measures
   the speedup against this implementation rather than asserting it. *)

type event = { id : int; born : Netsim.Time.t; thunk : unit -> unit }

type event_id = int

let no_event = -1

type t = {
  mutable clock : Netsim.Time.t;
  queue : event Mheap.t;
  (* Ids scheduled, not yet dispatched and not cancelled: exactly the
     dispatchable events, so [pending] need not see the cancelled
     corpses still sitting in the heap. *)
  scheduled : (int, unit) Hashtbl.t;
  cancelled : (int, unit) Hashtbl.t;
  mutable next_id : int;
  mutable dispatched_total : int;
  obs : Obs.Sink.t;
  c_scheduled : Obs.Metrics.Counter.t;
  c_dispatched : Obs.Metrics.Counter.t;
  c_cancelled : Obs.Metrics.Counter.t;
  g_depth : Obs.Metrics.Gauge.t;
  h_wait : Obs.Histogram.t;
}

let create ?(obs = Obs.Sink.null) () =
  {
    clock = 0;
    queue = Mheap.create ();
    scheduled = Hashtbl.create 64;
    cancelled = Hashtbl.create 64;
    next_id = 0;
    dispatched_total = 0;
    obs;
    c_scheduled = Obs.Sink.counter obs "engine.events.scheduled";
    c_dispatched = Obs.Sink.counter obs "engine.events.dispatched";
    c_cancelled = Obs.Sink.counter obs "engine.events.cancelled";
    g_depth = Obs.Sink.gauge obs "engine.queue.depth";
    h_wait = Obs.Sink.histogram obs "engine.event.wait_us";
  }

let now t = t.clock

let pending t = Hashtbl.length t.scheduled

let dispatched t = t.dispatched_total

let schedule_at t ~at thunk =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %d is in the past (now %d)" at
         t.clock);
  let id = t.next_id in
  t.next_id <- id + 1;
  Mheap.add t.queue ~prio:at { id; born = t.clock; thunk };
  Hashtbl.replace t.scheduled id ();
  if t.obs.Obs.Sink.enabled then begin
    Obs.Metrics.Counter.incr t.c_scheduled;
    Obs.Metrics.Gauge.set t.g_depth (float_of_int (pending t))
  end;
  id

let schedule t ~delay thunk =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~at:(t.clock + delay) thunk

let post_at t ~at thunk = ignore (schedule_at t ~at thunk : event_id)

let post t ~delay thunk = ignore (schedule t ~delay thunk : event_id)

let cancel t id =
  if Hashtbl.mem t.scheduled id then begin
    Hashtbl.remove t.scheduled id;
    Hashtbl.replace t.cancelled id ();
    if t.obs.Obs.Sink.enabled then Obs.Metrics.Counter.incr t.c_cancelled
  end

let dispatch t at ev =
  t.clock <- at;
  if Hashtbl.mem t.cancelled ev.id then Hashtbl.remove t.cancelled ev.id
  else begin
    Hashtbl.remove t.scheduled ev.id;
    t.dispatched_total <- t.dispatched_total + 1;
    if t.obs.Obs.Sink.enabled then begin
      Obs.Metrics.Counter.incr t.c_dispatched;
      Obs.Metrics.Gauge.set t.g_depth (float_of_int (pending t));
      Obs.Histogram.add t.h_wait (Netsim.Time.to_us (at - ev.born));
      Obs.Sink.span t.obs ~name:"event" ~cat:"engine" ~ts:ev.born
        ~dur:(at - ev.born) ~tid:0 ~v:ev.id
    end;
    ev.thunk ()
  end

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
