(* The pre-pool event engine, retained as the behavioural reference:
   a generic binary heap of closure-carrying entry records. Handler
   events are closures here, and a ranked post waits in a sorted list
   beside the heap. The
   production {!Netsim.Engine} must dispatch identically (same order, same
   times, same [pending] at every step) — the differential tests in
   [test/test_engine_pool.ml] pin that, and [bench/engine_perf.ml] measures
   the speedup against this implementation rather than asserting it. *)

type event = { id : int; born : Netsim.Time.t; thunk : unit -> unit }

type kind = int

type t = {
  mutable clock : Netsim.Time.t;
  queue : event Mheap.t;
  mutable ranked : (Netsim.Time.t * event) list;  (* sorted by (time, id) *)
  mutable handlers : (int -> unit) list;  (* newest first *)
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
    ranked = [];
    handlers = [];
    next_id = 0;
    dispatched_total = 0;
    obs;
    c_scheduled = Obs.Sink.counter obs "engine.events.scheduled";
    c_dispatched = Obs.Sink.counter obs "engine.events.dispatched";
    g_depth = Obs.Sink.gauge obs "engine.queue.depth";
    h_wait = Obs.Sink.histogram obs "engine.event.wait_us";
  }

let now t = t.clock

let pending t = Mheap.length t.queue + List.length t.ranked

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

let handler t f =
  t.handlers <- f :: t.handlers;
  List.length t.handlers - 1

let event_thunk t kind payload =
  let n = List.length t.handlers in
  if kind < 0 || kind >= n then
    invalid_arg "Engine.post_event: kind not registered with this engine";
  let f = List.nth t.handlers (n - 1 - kind) in
  fun () -> f payload

let post_event t ~delay kind payload =
  let thunk = event_thunk t kind payload in
  if delay < 0 then invalid_arg "Engine.post_event: negative delay";
  post t ~delay thunk

let post_event_at t ~at kind payload = post_at t ~at (event_thunk t kind payload)

(* A reservation takes [n] ids; a ranked post uses one of them as its
   id, which orders it among same-time events. *)
let reserve t n =
  if n < 0 then invalid_arg "Engine.reserve: negative count";
  let base = t.next_id in
  t.next_id <- base + n;
  base

let post_ranked t ~at ~rank thunk =
  if at < t.clock then invalid_arg "Engine.post_ranked: time in the past";
  let ev = { id = rank; born = t.clock; thunk } in
  let rec insert = function
    | ((at', ev') as x) :: rest when (at', ev'.id) < (at, rank) -> x :: insert rest
    | l -> (at, ev) :: l
  in
  t.ranked <- insert t.ranked;
  if t.obs.Obs.Sink.enabled then Obs.Metrics.Counter.incr t.c_scheduled

let post_event_ranked t ~at ~rank kind payload =
  post_ranked t ~at ~rank (event_thunk t kind payload)

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

(* Whether the ranked list's head comes before the heap's minimum;
   the list must be non-empty. *)
let ranked_first t =
  match (Mheap.min t.queue, t.ranked) with
  | None, _ -> true
  | Some (at, ev), (at', ev') :: _ -> (at', ev'.id) < (at, ev.id)
  | Some _, [] -> false

let pop_ranked t =
  match t.ranked with
  | x :: rest ->
    t.ranked <- rest;
    x
  | [] -> assert false

let step t =
  if t.ranked <> [] && ranked_first t then begin
    let at, ev = pop_ranked t in
    dispatch t at ev;
    true
  end
  else
    match Mheap.pop t.queue with
    | None -> false
    | Some (at, ev) ->
      dispatch t at ev;
      true

let run t = while step t do () done

let run_until t horizon =
  let continue = ref true in
  while !continue do
    if t.ranked <> [] && ranked_first t then begin
      if fst (List.hd t.ranked) <= horizon then begin
        let at, ev = pop_ranked t in
        dispatch t at ev
      end
      else continue := false
    end
    else
      match Mheap.min_prio t.queue with
      | Some at when at <= horizon ->
        (match Mheap.pop t.queue with
         | Some (at, ev) -> dispatch t at ev
         | None -> continue := false)
      | _ -> continue := false
  done;
  if horizon > t.clock then t.clock <- horizon
