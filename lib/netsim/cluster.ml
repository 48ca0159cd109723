(* Conservative windowed coupling of pooled engines.

   The run loop is SPMD: every worker domain executes the same round
   structure — drain inbound mailboxes for the partitions it owns,
   barrier, (worker 0 only) decide the next command, barrier, obey the
   command. All scheduling decisions are functions of simulation
   content alone, so the dispatch sequence of every engine is
   identical at any worker count. With one part there is nothing to
   couple: a window runs to the horizon or to the next barrier
   action, and no window profiler is registered.

     round:
       barrier (every window of the previous round has finished)
       decide  worker 0, alone: drain every mailbox into its
               destination engine — destinations in order, sources
               0..parts-1 within each, FIFO within each mailbox —
               then t_min := min over engines of next_time; run
               barrier actions due at or before t_min (engines caught
               up, single-threaded); then either Stop (nothing left
               at <= horizon) or Window (min (t_min+L-1) horizon
               (next_action-1)); one part drops the t_min+L-1 term
       barrier (the command and the drains are published)
       obey    each owner runs run_until window_end on its engines

   Draining inside the leader phase, not concurrently with windows,
   is what makes the mailboxes safely non-atomic: a fast worker
   looping around must not replay a mailbox another partition is
   still filling mid-window.

   Safety: an event at time t in window [w, w+L) can only reach
   another partition through [send], which requires delay >= L, so
   its arrival time t + delay >= w + L lies beyond the window end
   w + L - 1; draining at the next barrier therefore never inserts
   into an engine's past. Mailboxes are plain SPSC arrays: the
   barrier's Atomic/Mutex synchronization orders the producer's
   window-phase stores before the consumer's drain-phase loads.

   The barrier is sense-counting over a generation number: arrive
   under the mutex, last arrival bumps the generation and broadcasts;
   waiters spin briefly on an Atomic mirror of the generation (cheap
   when all cores are busy simulating) before falling back to the
   condition variable. An exception in any event or action poisons
   the run: the failing worker records it (first wins), keeps
   participating in barriers so nobody deadlocks, the next decide
   issues Stop, and the caller re-raises after joining. *)

type command = Stop | Window of int

type t = {
  parts : int;
  lookahead : int;
  engines : Engine.t array;
  sinks : Obs.Sink.t array;
  obs_on : bool;
  prof : Obs.Parprof.t;  (* inert at one part *)
  flow_seq : int array;
      (* per-src causal-trace sequence; written only by the domain
         running src's window (or setup code), like the mailboxes *)
  mailboxes : Mailbox.t array array;  (* .(src).(dst) *)
  actions : Eheap.t;  (* barrier times; payloads are [thunks] slots *)
  mutable thunks : (unit -> unit) array;
  mutable free : int list;  (* [thunks] slots not queued *)
  mutable command : command;  (* leader-written between barriers *)
  mutable parties : int;
  m : Mutex.t;
  c : Condition.t;
  mutable bcount : int;
  mutable bgen : int;
  bgen_a : int Atomic.t;
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
}

let create ?sinks ~parts ~lookahead () =
  if parts < 1 then invalid_arg "Cluster.create: parts must be >= 1";
  if parts > 1 && lookahead < 1 then
    invalid_arg "Cluster.create: lookahead must be positive";
  (match sinks with
   | Some a when Array.length a < parts ->
     invalid_arg "Cluster.create: fewer sinks than parts"
   | _ -> ());
  let sink p =
    match sinks with Some a -> a.(p) | None -> Obs.Sink.null
  in
  let sinks = Array.init parts sink in
  {
    parts;
    lookahead;
    engines = Array.init parts (fun p -> Engine.create ~obs:sinks.(p) ());
    sinks;
    obs_on = Array.exists Obs.Sink.enabled sinks;
    prof = Obs.Parprof.create (if parts > 1 then sinks else [||]);
    flow_seq = Array.make parts 0;
    mailboxes =
      Array.init parts (fun _ -> Array.init parts (fun _ -> Mailbox.create ()));
    actions = Eheap.create ();
    thunks = [||];
    free = [];
    command = Stop;
    parties = 1;
    m = Mutex.create ();
    c = Condition.create ();
    bcount = 0;
    bgen = 0;
    bgen_a = Atomic.make 0;
    failure = Atomic.make None;
  }

let parts t = t.parts

let lookahead t = t.lookahead

let engine t p = t.engines.(p)

let send t ~src ~dst ~delay thunk =
  if src = dst then Engine.post t.engines.(src) ~delay thunk
  else begin
    if delay < t.lookahead then
      invalid_arg
        (Printf.sprintf "Cluster.send: delay %d below lookahead %d" delay
           t.lookahead);
    let at = Engine.now t.engines.(src) + delay in
    if t.obs_on then begin
      (* Causal flow id: (src+1, seq) packed so it is never 0 (the
         mailbox's tracing-off sentinel). Emitted on the enqueuing
         partition's own sink; the matching step/end phases follow at
         leader drain and destination dispatch. *)
      let seq = t.flow_seq.(src) in
      t.flow_seq.(src) <- seq + 1;
      let id = ((src + 1) lsl 40) lor (seq land ((1 lsl 40) - 1)) in
      Obs.Sink.flow_start t.sinks.(src) ~name:"xsend" ~cat:"cluster"
        ~ts:(Engine.now t.engines.(src))
        ~tid:src ~id;
      Obs.Parprof.enqueue t.prof ~src;
      Mailbox.push t.mailboxes.(src).(dst) ~at ~flow:id thunk
    end
    else Mailbox.push t.mailboxes.(src).(dst) ~at ~flow:0 thunk
  end

let at_barrier t ~at thunk =
  if at < 0 then invalid_arg "Cluster.at_barrier: negative time";
  (* Slots are handed out in order, so with none free exactly slots
     0..length-1 are queued. *)
  let slot =
    match t.free with
    | s :: rest -> t.free <- rest; s
    | [] -> Eheap.length t.actions
  in
  if slot = Array.length t.thunks then
    t.thunks <- Array.append t.thunks (Array.make (slot + 1) ignore);
  t.thunks.(slot) <- thunk;
  Eheap.add t.actions ~time:at ~slot

(* [min_time] is [max_int] on an empty heap, which a [max_int] bound
   must not mistake for a due action. *)
let action_due t ~by =
  (not (Eheap.is_empty t.actions)) && Eheap.min_time t.actions <= by

let pop_action t =
  let slot = Eheap.pop t.actions in
  let act = t.thunks.(slot) in
  t.thunks.(slot) <- ignore;
  t.free <- slot :: t.free;
  act

let await t =
  Mutex.lock t.m;
  t.bcount <- t.bcount + 1;
  if t.bcount = t.parties then begin
    t.bcount <- 0;
    t.bgen <- t.bgen + 1;
    Atomic.set t.bgen_a t.bgen;
    Condition.broadcast t.c;
    Mutex.unlock t.m
  end
  else begin
    let target = t.bgen + 1 in
    Mutex.unlock t.m;
    let spins = ref 0 in
    while Atomic.get t.bgen_a < target && !spins < 2000 do
      incr spins;
      Domain.cpu_relax ()
    done;
    if Atomic.get t.bgen_a < target then begin
      Mutex.lock t.m;
      while t.bgen < target do
        Condition.wait t.c t.m
      done;
      Mutex.unlock t.m
    end
  end

let poison t ex =
  let payload = Some (ex, Printexc.get_raw_backtrace ()) in
  ignore (Atomic.compare_and_set t.failure None payload : bool)

(* Leader-only, between barriers: every engine quiescent. Replays
   cross-partition mailboxes, runs due barrier actions (which may post
   events and further actions), then picks Stop or the next window. *)
let drain_all t =
  for dst = 0 to t.parts - 1 do
    let e = t.engines.(dst) in
    if Obs.Parprof.enabled t.prof then begin
      let depth = ref 0 in
      for src = 0 to t.parts - 1 do
        depth := !depth + Mailbox.length t.mailboxes.(src).(dst)
      done;
      Obs.Parprof.drain t.prof ~dst ~depth:!depth
    end;
    for src = 0 to t.parts - 1 do
      Mailbox.drain t.mailboxes.(src).(dst) (fun ~at ~flow thunk ->
          if flow <> 0 then begin
            (* Leader-side hop of the causal flow: the drain itself,
               stamped at the destination clock; the closing phase
               fires when the destination dispatches the event. The
               wrapper closure only exists on the obs-on path. *)
            Obs.Sink.flow_step t.sinks.(dst) ~name:"xdrain" ~cat:"cluster"
              ~ts:(Engine.now e) ~tid:dst ~id:flow;
            Engine.post_at e ~at (fun () ->
                Obs.Sink.flow_end t.sinks.(dst) ~name:"xdispatch"
                  ~cat:"cluster" ~ts:at ~tid:dst ~id:flow;
                thunk ())
          end
          else Engine.post_at e ~at thunk)
    done
  done

let decide t ~horizon =
  drain_all t;
  if Atomic.get t.failure <> None then t.command <- Stop
  else begin
    let rec go () =
      let t_min =
        Array.fold_left
          (fun acc e -> min acc (Engine.next_time e))
          max_int t.engines
      in
      if action_due t ~by:(min horizon t_min) then begin
        let g = Eheap.min_time t.actions in
        (* Actions at [g] precede engine events at [g]; catch clocks
           up so actions observe every engine at (just before) [g]. *)
        Array.iter (fun e -> Engine.run_until e (g - 1)) t.engines;
        let rec pop_due () =
          if Atomic.get t.failure = None && action_due t ~by:g then begin
            (try pop_action t () with ex -> poison t ex);
            pop_due ()
          end
        in
        pop_due ();
        if Atomic.get t.failure <> None then t.command <- Stop else go ()
      end
      else if t_min > horizon || t_min = max_int (* all drained *) then begin
        Array.iter (fun e -> Engine.run_until e horizon) t.engines;
        t.command <- Stop
      end
      else begin
        let end_ =
          if t.parts = 1 then horizon else min (t_min + t.lookahead - 1) horizon
        in
        let end_ =
          if action_due t ~by:horizon then
            min end_ (Eheap.min_time t.actions - 1)
          else end_
        in
        t.command <- Window end_
      end
    in
    go ()
  end

let run ?(domains = 1) t ~horizon =
  if domains < 1 then invalid_arg "Cluster.run: domains must be >= 1";
  (* Domains beyond the cores only time-slice at every window barrier:
     a 4-domain e2e run on 2 cores took about 10x its 1-domain time. *)
  let workers =
    min (min domains t.parts) (Domain.recommended_domain_count ())
  in
  t.parties <- workers;
  let profiling = Obs.Parprof.enabled t.prof in
  if profiling then
    Obs.Parprof.set_topology t.prof ~workers ~lookahead:t.lookahead;
  let worker w =
    let continue = ref true in
    (* Wall nanoseconds this worker has spent in barriers since it
       last owned its home sink (partition w) — reported from the
       obey phase, where ownership is certain. *)
    let pending_wait = ref 0 in
    let await_timed () =
      if profiling then begin
        let w0 = Time.monotonic_ns () in
        await t;
        pending_wait := !pending_wait + (Time.monotonic_ns () - w0)
      end
      else await t
    in
    while !continue do
      await_timed ();
      if w = 0 then begin
        (* The leader touches every engine while draining mailboxes
           and catching clocks up: take ownership of all sinks for
           the decide phase (the surrounding barriers order the
           handoff with the workers' claims). *)
        if t.obs_on then Array.iter Obs.Sink.claim t.sinks;
        decide t ~horizon
      end;
      await_timed ();
      match t.command with
      | Stop -> continue := false
      | Window end_ ->
        let p = ref w in
        while !p < t.parts do
          let e = t.engines.(!p) in
          if t.obs_on then Obs.Sink.claim t.sinks.(!p);
          if profiling then begin
            if !p = w && !pending_wait > 0 then begin
              (* Worker w always owns partition w (w < workers <=
                 parts), so its wait series lands on sink w. *)
              Obs.Parprof.barrier_wait t.prof ~worker:w ~ts:(Engine.now e)
                ~wait_ns:!pending_wait;
              pending_wait := 0
            end;
            let start_ts = Engine.now e in
            let d0 = Engine.dispatched e in
            let w0 = Time.monotonic_ns () in
            (try Engine.run_until e end_ with ex -> poison t ex);
            let busy_ns = Time.monotonic_ns () - w0 in
            Obs.Parprof.window t.prof ~part:!p ~start_ts ~end_ts:end_
              ~busy_ns
              ~dispatched:(Engine.dispatched e - d0)
          end
          else begin
            try Engine.run_until e end_ with ex -> poison t ex
          end;
          p := !p + workers
        done
    done
  in
  let spawned =
    Array.init (workers - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
  in
  worker 0;
  Array.iter Domain.join spawned;
  (* Back to single-domain use: the caller may merge or re-run. *)
  if t.obs_on then Array.iter Obs.Sink.release t.sinks;
  match Atomic.get t.failure with
  | Some (ex, bt) ->
    Atomic.set t.failure None;
    Printexc.raise_with_backtrace ex bt
  | None -> ()
