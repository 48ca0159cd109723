(* Allocation-free discrete-event engine core.

   The event store is a pooled structure of arrays indexed by slot:
   thunk, payload (once a handler exists), birth time (with an enabled
   sink) and a free-list link, all in flat arrays that grow
   geometrically and are reused forever. The ready queue has two
   parts. A wheel of one-nanosecond buckets holds every event due
   within [wheel_span] of the clock; an {!Eheap} (a monomorphic 4-ary
   min-heap over (time, seq) keys whose payloads are pool slots) holds
   the events due later, and all of them until [wheel_backlog] events
   are pending at once. In steady state a post/dispatch cycle
   allocates nothing: no entry records, no Hashtbl nodes, no options
   or tuples from either queue, and (with the obs sink off) no boxed
   floats.

   The wheel covers the window [clock, clock + wheel_span), so bucket
   [at land wheel_mask] holds events of exactly one time. Each bucket
   is a FIFO of pool slots threaded through [free_next], which an
   active slot does not otherwise use: the bucket keeps its tail, and
   the tail's link points back to the head. A two-level occupancy
   bitmap finds the first non-empty bucket at or after the clock in a
   few words. Post and dispatch are O(1) for the wheel; only the far
   future pays the heap's O(log n). Entries never migrate from the
   heap to the wheel.

   Dispatch order is (time, seq) exactly, as with one heap. Within a
   bucket FIFO order is post order. Between the parts, an overflow
   entry wins a tie: it was queued while its time was still a full
   span away, so before any wheel entry of the same time. The
   tie-break counter a snapshot carries counts every post, in either
   part. A ranked post ([reserve], [post_event_ranked]) goes to the
   heap with a seq reserved earlier; it keeps the same order because
   the wheel is empty at the reservation, so every wheel entry it can
   tie with was posted after it and loses the tie anyway.

   A slot holds a thunk and an int payload. A handler event's thunk is
   the one [handler] built when the handler was registered, which
   calls it on the payload of the slot being dispatched; a thunk post
   leaves the payload unused. Both forms travel the same pool,
   wheel and heap and take the same tie-break ranks, so they
   interleave in one (time, seq) order, and a handler event stores a
   closure that exists already and an int, so posting one allocates
   nothing.

   Events cannot be withdrawn once posted. A timer whose owner no
   longer wants it is retired by the owner: the thunk checks a stamp
   or flag and returns without acting. [pending] is a cached counter
   of queued events maintained at post and dispatch, and the obs depth
   gauge reads it only on dispatch, so the disabled-sink path never
   boxes a float.

   Observable behaviour (dispatch order and times, [pending], [step]'s
   clock advance) is pinned to the seed's engine, kept with the tests
   as test/oracle/engine_reference.ml, by qcheck differential tests. *)

let noop () = ()

type kind = int

(* The wheel spans 2^13 ns = 8.192 us: every delay the data plane
   schedules (cell slots, cell hops, credit returns) except the gap of
   a slow CBR source. DESIGN.md gives the measurement behind the
   value. Occupancy bits sit in 32-bit words: 256 leaf words with one
   bit per bucket, under 8 summary words with one bit per leaf word. *)
let wheel_bits = 13
let wheel_span = 1 lsl wheel_bits
let wheel_mask = wheel_span - 1
let word_bits = 5
let word_mask = (1 lsl word_bits) - 1
let leaf_words = wheel_span lsr word_bits
let summary_words = leaf_words lsr word_bits

(* The wheel's arrays (64 KB of bucket tails) are allocated once this
   many events are pending at the same time. An engine that never
   holds that many keeps a shallow heap and skips the wheel's set-up,
   which costs more than a short run dispatches. Turning the wheel on
   mid-run keeps the order exact: every heap entry queued before it
   was queued before any wheel entry. *)
let wheel_backlog = 128

type t = {
  mutable clock : Time.t;
  queue : Eheap.t;  (* events due at clock + near or later *)
  mutable near : int;  (* wheel_span once the wheel is on, 0 before *)
  mutable tails : int array;  (* per bucket: its last slot, -1 when empty *)
  mutable leaf : int array;  (* bit b of word w: bucket 32w + b occupied *)
  mutable summary : int array;  (* bit b of word w: leaf word 32w + b non-zero *)
  mutable wheel_size : int;
  mutable scheduled_total : int;  (* the snapshot's tie-break counter *)
  mutable thunks : (unit -> unit) array;
  mutable payloads : int array;
  mutable current : int;  (* the slot being dispatched *)
  mutable handlers : (unit -> unit) array;  (* by kind: the events' thunks *)
  mutable n_handlers : int;
  mutable born : int array;
  mutable free_next : int array;
  mutable free_head : int;  (* -1 when the pool is full *)
  mutable live : int;  (* cached [pending] *)
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
    queue = Eheap.create ();
    near = 0;
    tails = [||];
    leaf = [||];
    summary = [||];
    wheel_size = 0;
    scheduled_total = 0;
    thunks = [||];
    payloads = [||];
    current = 0;
    handlers = [||];
    n_handlers = 0;
    born = [||];
    free_next = [||];
    free_head = -1;
    live = 0;
    dispatched_total = 0;
    obs;
    c_scheduled = Obs.Sink.counter obs "engine.events.scheduled";
    c_dispatched = Obs.Sink.counter obs "engine.events.dispatched";
    g_depth = Obs.Sink.gauge obs "engine.queue.depth";
    h_wait = Obs.Sink.histogram obs "engine.event.wait_us";
  }

let now t = t.clock

(* ---- The wheel ---- *)

let enable_wheel t =
  t.tails <- Array.make wheel_span (-1);
  t.leaf <- Array.make leaf_words 0;
  t.summary <- Array.make summary_words 0;
  t.near <- wheel_span

let[@inline] wheel_add t at slot =
  let b = at land wheel_mask in
  let tail = t.tails.(b) in
  if tail < 0 then begin
    t.free_next.(slot) <- slot;
    let w = b lsr word_bits in
    let lw = t.leaf.(w) in
    if lw = 0 then begin
      let sw = w lsr word_bits in
      t.summary.(sw) <- t.summary.(sw) lor (1 lsl (w land word_mask))
    end;
    t.leaf.(w) <- lw lor (1 lsl (b land word_mask))
  end
  else begin
    t.free_next.(slot) <- t.free_next.(tail);
    t.free_next.(tail) <- slot
  end;
  t.tails.(b) <- slot;
  t.wheel_size <- t.wheel_size + 1

(* Unlink and return the head of non-empty bucket [b]. *)
let[@inline] wheel_take t b =
  let tail = t.tails.(b) in
  let head = t.free_next.(tail) in
  if head = tail then begin
    t.tails.(b) <- -1;
    let w = b lsr word_bits in
    let lw = t.leaf.(w) land lnot (1 lsl (b land word_mask)) in
    t.leaf.(w) <- lw;
    if lw = 0 then begin
      let sw = w lsr word_bits in
      t.summary.(sw) <- t.summary.(sw) land lnot (1 lsl (w land word_mask))
    end
  end
  else t.free_next.(tail) <- t.free_next.(head);
  t.wheel_size <- t.wheel_size - 1;
  head

(* First non-zero leaf word at or after [w], cyclically. Some summary
   bit is set; if the only ones sit in [w]'s summary word below [w],
   the scan wraps back to that word and takes its lowest. *)
let first_leaf_from t w =
  let w = w land (leaf_words - 1) in
  let sw = w lsr word_bits in
  let m = t.summary.(sw) land (-1 lsl (w land word_mask)) in
  if m <> 0 then (sw lsl word_bits) lor Bits.ctz m
  else begin
    let k = ref ((sw + 1) land (summary_words - 1)) in
    while t.summary.(!k) = 0 do
      k := (!k + 1) land (summary_words - 1)
    done;
    (!k lsl word_bits) lor Bits.ctz t.summary.(!k)
  end

(* First non-empty bucket at or after the clock's, cyclically; the
   wheel must be non-empty. Every wheel entry lies in
   [clock, clock + wheel_span), so cyclic order from the clock's bucket
   is time order. When the clock's leaf word has nothing at or above
   the clock, the scan may wrap back to that word, whose low bits are
   then the latest times. *)
let wheel_first t =
  let p = t.clock land wheel_mask in
  let w = p lsr word_bits in
  let m = t.leaf.(w) land (-1 lsl (p land word_mask)) in
  if m <> 0 then (w lsl word_bits) lor Bits.ctz m
  else
    let w = first_leaf_from t (w + 1) in
    (w lsl word_bits) lor Bits.ctz t.leaf.(w)

(* Time of the wheel's earliest entry, [max_int] when it is empty. *)
let wheel_min t =
  if t.wheel_size = 0 then max_int
  else t.clock + ((wheel_first t - t.clock) land wheel_mask)

let next_time t =
  let h = Eheap.min_time t.queue and w = wheel_min t in
  if h <= w then h else w

let pending t = t.live

let dispatched t = t.dispatched_total

let extend a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Double the pool. [payloads] exists only once a handler is
   registered and [born] only with an enabled sink, the one reader of
   birth times: an engine without them keeps two arrays per slot. *)
let grow t =
  let cap = Array.length t.free_next in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let nfree = extend t.free_next ncap 0 in
  (* Thread the new slots onto the free list, lowest first. *)
  for slot = ncap - 1 downto cap do
    nfree.(slot) <- t.free_head;
    t.free_head <- slot
  done;
  t.thunks <- extend t.thunks ncap noop;
  if t.n_handlers > 0 then t.payloads <- extend t.payloads ncap 0;
  if t.obs.Obs.Sink.enabled then t.born <- extend t.born ncap 0;
  t.free_next <- nfree

(* Return a slot to the pool; dropping the thunk reference lets the
   closure be collected. *)
let[@inline] release t slot =
  t.thunks.(slot) <- noop;
  t.free_next.(slot) <- t.free_head;
  t.free_head <- slot

let handler t f =
  let n = t.n_handlers in
  if n = Array.length t.handlers then
    t.handlers <- extend t.handlers (max 4 (2 * n)) noop;
  (* Run before any other post can reuse the slot, the thunk reads its
     payload first. *)
  t.handlers.(n) <- (fun () -> f t.payloads.(t.current));
  t.n_handlers <- n + 1;
  let cap = Array.length t.free_next in
  if Array.length t.payloads < cap then t.payloads <- extend t.payloads cap 0;
  n

let check_kind t kind =
  if kind < 0 || kind >= t.n_handlers then
    invalid_arg "Engine.post_event: kind not registered with this engine"

let check_future t at =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.post_at: time %d is in the past (now %d)" at
         t.clock)

(* Take a free pool slot and count it pending; the caller fills the
   slot and queues it. *)
let[@inline] take_slot t =
  if t.free_head < 0 then grow t;
  let slot = t.free_head in
  t.free_head <- t.free_next.(slot);
  t.live <- t.live + 1;
  if t.obs.Obs.Sink.enabled then begin
    t.born.(slot) <- t.clock;
    Obs.Metrics.Counter.incr t.c_scheduled
  end;
  slot

let[@inline] take_event_slot t kind payload =
  let slot = take_slot t in
  t.thunks.(slot) <- t.handlers.(kind);
  t.payloads.(slot) <- payload;
  slot

(* Queue a filled slot due at [at] with the next tie-break rank. *)
let[@inline] enqueue t at slot =
  if at - t.clock < t.near then wheel_add t at slot
  else begin
    Eheap.add t.queue ~time:at ~slot;
    if t.near = 0 && t.live > wheel_backlog then enable_wheel t
  end;
  t.scheduled_total <- t.scheduled_total + 1

let post_at t ~at thunk =
  check_future t at;
  let slot = take_slot t in
  t.thunks.(slot) <- thunk;
  enqueue t at slot

let post t ~delay thunk =
  if delay < 0 then invalid_arg "Engine.post: negative delay";
  post_at t ~at:(t.clock + delay) thunk

let post_event_at t ~at kind payload =
  check_future t at;
  check_kind t kind;
  enqueue t at (take_event_slot t kind payload)

let post_event t ~delay kind payload =
  if delay < 0 then invalid_arg "Engine.post_event: negative delay";
  post_event_at t ~at:(t.clock + delay) kind payload

(* Ranked events always go to the heap, keyed by their reserved rank.
   A heap entry wins a tie with the wheel, which is seq order as long
   as every wheel entry was posted after the reservation: hence the
   empty wheel [reserve] insists on. *)
let reserve t n =
  if t.wheel_size > 0 then invalid_arg "Engine.reserve: the wheel holds events";
  let base = Eheap.reserve t.queue n in
  t.scheduled_total <- t.scheduled_total + n;
  base

let post_event_ranked t ~at ~rank kind payload =
  check_future t at;
  check_kind t kind;
  let slot = take_event_slot t kind payload in
  Eheap.add_ranked t.queue ~time:at ~seq:rank ~slot;
  if t.near = 0 && t.live > wheel_backlog then enable_wheel t

(* Dispatch the already-popped slot at time [at]. The slot is
   released before the event runs, so an event's own posting reuses
   it immediately. *)
let[@inline] fire t at slot =
  t.clock <- at;
  let thunk = t.thunks.(slot) in
  t.current <- slot;
  release t slot;
  t.live <- t.live - 1;
  t.dispatched_total <- t.dispatched_total + 1;
  if t.obs.Obs.Sink.enabled then begin
    let born = t.born.(slot) in
    Obs.Metrics.Counter.incr t.c_dispatched;
    Obs.Metrics.Gauge.set t.g_depth (float_of_int t.live);
    Obs.Histogram.add t.h_wait (Time.to_us (at - born));
    Obs.Sink.span t.obs ~name:"event" ~cat:"engine" ~ts:born ~dur:(at - born)
      ~tid:0 ~v:slot
  end;
  thunk ()

(* Pop and fire the next entry if it is due at or before [limit]. The
   overflow heap's root wins a tie with the wheel's first bucket. *)
let dispatch_next t ~limit =
  let at = wheel_min t in
  if Eheap.min_time t.queue <= at then begin
    let slot = Eheap.pop_if_at_most t.queue ~limit in
    if slot < 0 then false
    else begin
      fire t (Eheap.popped_time t.queue) slot;
      true
    end
  end
  else if at > limit then false
  else begin
    fire t at (wheel_take t (at land wheel_mask));
    true
  end

let step t = dispatch_next t ~limit:max_int

let run t = while step t do () done

(* Snapshots. Thunks are closures and cannot be serialized, so a
   checkpoint is only legal when the engine holds no events. Handlers
   are closures too: a restored engine has none, and each layer
   registers its own again when it is rebuilt over it. What
   remains is the deterministic skeleton: clock, dispatch count, the
   tie-break counter (every post so far, in either part), and the
   pool's free-list threading (future slot assignment, which a trace
   span reports, depends on it). *)

let quiescent t = t.live = 0

let snapshot_section = "netsim-engine"
let snapshot_version = 2

let save t =
  if not (quiescent t) then
    invalid_arg
      (Printf.sprintf
         "Engine.save: not quiescent (%d live events, %d queued)" t.live
         (t.wheel_size + Eheap.length t.queue));
  Snapshot.make ~name:snapshot_section ~version:snapshot_version (fun w ->
      Snapshot.W.int w t.clock;
      Snapshot.W.int w t.dispatched_total;
      Snapshot.W.int w t.scheduled_total;
      Snapshot.W.int w t.free_head;
      Snapshot.W.int_array w t.free_next)

let restore ?obs section =
  Snapshot.read section ~name:snapshot_section ~version:snapshot_version
    (fun r ->
      let clock = Snapshot.R.int r in
      let dispatched_total = Snapshot.R.int r in
      let next_seq = Snapshot.R.int r in
      let free_head = Snapshot.R.int r in
      let free_next = Snapshot.R.int_array r in
      let cap = Array.length free_next in
      if clock < 0 || dispatched_total < 0 || next_seq < 0 then
        Snapshot.R.corrupt "Engine: negative counter";
      (* A quiescent save holds every slot on the free list: the walk
         from its head visits each slot exactly once and ends at -1. *)
      let seen = Bytes.make cap '\000' in
      let rec walk slot visited =
        if slot = -1 then visited
        else if slot < -1 || slot >= cap then
          Snapshot.R.corrupt "Engine: free list link out of range"
        else if Bytes.get seen slot <> '\000' then
          Snapshot.R.corrupt "Engine: free list loops"
        else begin
          Bytes.set seen slot '\001';
          walk free_next.(slot) (visited + 1)
        end
      in
      if walk free_head 0 <> cap then
        Snapshot.R.corrupt "Engine: free list misses a pool slot";
      let t = create ?obs () in
      t.clock <- clock;
      t.dispatched_total <- dispatched_total;
      t.scheduled_total <- next_seq;
      t.thunks <- Array.make cap noop;
      if t.obs.Obs.Sink.enabled then t.born <- Array.make cap 0;
      t.free_next <- free_next;
      t.free_head <- free_head;
      t)

let run_until t horizon =
  while dispatch_next t ~limit:horizon do () done;
  if horizon > t.clock then t.clock <- horizon
