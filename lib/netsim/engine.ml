(* Allocation-free discrete-event engine core.

   The event store is a pooled structure of arrays indexed by slot:
   thunk, birth time, generation, state, and a free-list link, all in
   flat arrays that grow geometrically and are reused forever. The
   ready queue is an {!Eheap}: a monomorphic 4-ary min-heap over
   (time, seq) keys whose payloads are pool slots. In steady state a
   schedule/dispatch cycle allocates nothing: no entry records, no
   Hashtbl nodes, no options or tuples from the heap, and (with the
   obs sink off) no boxed floats.

   Event ids pack (generation, slot) into one int. Cancellation marks
   the slot Cancelled and leaves the heap entry in place as a corpse;
   the corpse is reaped (slot freed, generation bumped) when it
   reaches the heap root. The generation bump on every release is what
   makes stale ids harmless: an id whose generation no longer matches
   its slot's names a dead event, and [cancel] ignores it. [pending]
   is a cached counter maintained at schedule/cancel/dispatch — no
   Hashtbl.length walk, and the obs depth gauge reads it only on
   dispatch, so the disabled-sink path never boxes a float.

   Observable behaviour (dispatch order and times, [pending], [step]'s
   clock advance even over cancelled corpses) is pinned to the seed's
   engine, kept with the tests as test/oracle/engine_reference.ml, by
   qcheck differential tests. *)

type event_id = int

(* Ids are [(gen lsl slot_bits) lor slot]. 31 slot bits bound the pool
   at 2^31 outstanding events; generations wrap at 2^30, so a stale id
   could only alias after the same slot is reused a billion times
   between the id's creation and the cancel. *)
let slot_bits = 31
let slot_mask = (1 lsl slot_bits) - 1
let gen_mask = (1 lsl 30) - 1

let no_event = -1

(* Slot states. Free slots are threaded through [free_next]. *)
let st_free = 0
let st_active = 1
let st_cancelled = 2

let noop () = ()

type t = {
  mutable clock : Time.t;
  queue : Eheap.t;
  mutable thunks : (unit -> unit) array;
  mutable born : int array;
  mutable gen : int array;
  mutable state : int array;
  mutable free_next : int array;
  mutable free_head : int;  (* -1 when the pool is full *)
  mutable live : int;  (* cached [pending] *)
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
    queue = Eheap.create ();
    thunks = [||];
    born = [||];
    gen = [||];
    state = [||];
    free_next = [||];
    free_head = -1;
    live = 0;
    dispatched_total = 0;
    obs;
    c_scheduled = Obs.Sink.counter obs "engine.events.scheduled";
    c_dispatched = Obs.Sink.counter obs "engine.events.dispatched";
    c_cancelled = Obs.Sink.counter obs "engine.events.cancelled";
    g_depth = Obs.Sink.gauge obs "engine.queue.depth";
    h_wait = Obs.Sink.histogram obs "engine.event.wait_us";
  }

let now t = t.clock

(* Conservative: a cancelled corpse at the heap root reports its key
   even though firing it runs nothing. Callers (the cluster window
   loop) only need a lower bound on the next dispatch time, and the
   corpse's key is exactly that. *)
let next_time t = Eheap.min_time t.queue

let pending t = t.live

let dispatched t = t.dispatched_total

let grow t =
  let cap = Array.length t.state in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let nthunks = Array.make ncap noop
  and nborn = Array.make ncap 0
  and ngen = Array.make ncap 0
  and nstate = Array.make ncap st_free
  and nfree = Array.make ncap 0 in
  Array.blit t.thunks 0 nthunks 0 cap;
  Array.blit t.born 0 nborn 0 cap;
  Array.blit t.gen 0 ngen 0 cap;
  Array.blit t.state 0 nstate 0 cap;
  Array.blit t.free_next 0 nfree 0 cap;
  (* Thread the new slots onto the free list, lowest first. *)
  for slot = ncap - 1 downto cap do
    nfree.(slot) <- t.free_head;
    t.free_head <- slot
  done;
  t.thunks <- nthunks;
  t.born <- nborn;
  t.gen <- ngen;
  t.state <- nstate;
  t.free_next <- nfree

(* Return a slot to the pool. The generation bump invalidates every
   id that ever named this slot; dropping the thunk reference lets the
   closure be collected. *)
let[@inline] release t slot =
  t.thunks.(slot) <- noop;
  t.state.(slot) <- st_free;
  t.gen.(slot) <- (t.gen.(slot) + 1) land gen_mask;
  t.free_next.(slot) <- t.free_head;
  t.free_head <- slot

let schedule_at t ~at thunk =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %d is in the past (now %d)" at
         t.clock);
  if t.free_head < 0 then grow t;
  let slot = t.free_head in
  t.free_head <- t.free_next.(slot);
  t.thunks.(slot) <- thunk;
  t.born.(slot) <- t.clock;
  t.state.(slot) <- st_active;
  Eheap.add t.queue ~time:at ~slot;
  t.live <- t.live + 1;
  if t.obs.Obs.Sink.enabled then Obs.Metrics.Counter.incr t.c_scheduled;
  (t.gen.(slot) lsl slot_bits) lor slot

let schedule t ~delay thunk =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~at:(t.clock + delay) thunk

let post_at t ~at thunk = ignore (schedule_at t ~at thunk : event_id)

let post t ~delay thunk = ignore (schedule t ~delay thunk : event_id)

let cancel t id =
  let slot = id land slot_mask in
  if
    id >= 0
    && slot < Array.length t.state
    && t.state.(slot) = st_active
    && t.gen.(slot) = id lsr slot_bits
  then begin
    t.state.(slot) <- st_cancelled;
    t.live <- t.live - 1;
    if t.obs.Obs.Sink.enabled then Obs.Metrics.Counter.incr t.c_cancelled
  end

(* Dispatch the already-popped slot at time [at]. Cancelled corpses
   still advance the clock (matching the reference engine) but run
   nothing. The slot is released before the thunk runs, so an event's
   own scheduling reuses it immediately. *)
let[@inline] fire t at slot =
  t.clock <- at;
  if t.state.(slot) = st_cancelled then release t slot
  else begin
    let thunk = t.thunks.(slot) in
    let born = t.born.(slot) in
    release t slot;
    t.live <- t.live - 1;
    t.dispatched_total <- t.dispatched_total + 1;
    if t.obs.Obs.Sink.enabled then begin
      Obs.Metrics.Counter.incr t.c_dispatched;
      Obs.Metrics.Gauge.set t.g_depth (float_of_int t.live);
      Obs.Histogram.add t.h_wait (Time.to_us (at - born));
      Obs.Sink.span t.obs ~name:"event" ~cat:"engine" ~ts:born ~dur:(at - born)
        ~tid:0 ~v:slot
    end;
    thunk ()
  end

let step t =
  let slot = Eheap.pop t.queue in
  if slot < 0 then false
  else begin
    fire t (Eheap.popped_time t.queue) slot;
    true
  end

let run t = while step t do () done

(* Snapshots. Thunks are closures and cannot be serialized, so a
   checkpoint is only legal when the engine is fully drained: no live
   events AND an empty heap. The heap must be empty (not merely
   corpse-only) because popping a cancelled corpse still advances the
   clock — a corpse left behind would change post-restore timing. What
   remains is the deterministic skeleton: clock, dispatch count, the
   heap's tie-break counter, and the pool's free-list threading and
   generations (future slot/id assignment depends on both). *)

let quiescent t = t.live = 0 && Eheap.is_empty t.queue

let snapshot_section = "netsim-engine"
let snapshot_version = 1

let save t =
  if not (quiescent t) then
    invalid_arg
      (Printf.sprintf
         "Engine.save: not quiescent (%d live events, heap length %d)" t.live
         (Eheap.length t.queue));
  Snapshot.make ~name:snapshot_section ~version:snapshot_version (fun w ->
      Snapshot.W.int w t.clock;
      Snapshot.W.int w t.dispatched_total;
      Snapshot.W.int w (Eheap.next_seq t.queue);
      Snapshot.W.int w t.free_head;
      Snapshot.W.int_array w t.free_next;
      Snapshot.W.int_array w t.gen)

let restore ?obs section =
  Snapshot.read section ~name:snapshot_section ~version:snapshot_version
    (fun r ->
      let clock = Snapshot.R.int r in
      let dispatched_total = Snapshot.R.int r in
      let next_seq = Snapshot.R.int r in
      let free_head = Snapshot.R.int r in
      let free_next = Snapshot.R.int_array r in
      let gen = Snapshot.R.int_array r in
      let cap = Array.length free_next in
      if Array.length gen <> cap then
        Snapshot.R.corrupt "Engine: free_next/gen length mismatch";
      if clock < 0 || dispatched_total < 0 || next_seq < 0 then
        Snapshot.R.corrupt "Engine: negative counter";
      if free_head < -1 || free_head >= cap then
        Snapshot.R.corrupt "Engine: free_head out of range";
      Array.iter
        (fun v ->
          if v < -1 || v >= cap then
            Snapshot.R.corrupt "Engine: free_next link out of range")
        free_next;
      Array.iter
        (fun g ->
          if g < 0 || g > gen_mask then
            Snapshot.R.corrupt "Engine: generation out of range")
        gen;
      let t = create ?obs () in
      t.clock <- clock;
      t.dispatched_total <- dispatched_total;
      Eheap.set_next_seq t.queue next_seq;
      t.thunks <- Array.make cap noop;
      t.born <- Array.make cap 0;
      t.gen <- gen;
      t.state <- Array.make cap st_free;
      t.free_next <- free_next;
      t.free_head <- free_head;
      t)

let run_until t horizon =
  let continue = ref true in
  while !continue do
    let slot = Eheap.pop_if_at_most t.queue ~limit:horizon in
    if slot < 0 then continue := false
    else fire t (Eheap.popped_time t.queue) slot
  done;
  if horizon > t.clock then t.clock <- horizon
