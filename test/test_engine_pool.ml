(* The pooled engine core: Eheap, differential equivalence against the
   retained reference engine, generation-tagged id reuse, and the
   parallel sweep runner. *)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Eheap *)

let test_eheap_sorted_fifo =
  qtest ~count:300 "pop order is a stable sort on time"
    QCheck.(list_of_size (Gen.int_range 0 150) (int_range 0 20))
    (fun times ->
      (* Payload i is the insertion index: the heap must pop exactly
         the order of a stable sort on time. *)
      let h = Netsim.Eheap.create () in
      List.iteri (fun i t -> Netsim.Eheap.add h ~time:t ~slot:i) times;
      let rec drain acc =
        match Netsim.Eheap.pop h with
        | -1 -> List.rev acc
        | slot -> drain ((Netsim.Eheap.popped_time h, slot) :: acc)
      in
      drain []
      = List.stable_sort
          (fun (a, _) (b, _) -> compare a b)
          (List.mapi (fun i t -> (t, i)) times))

let test_eheap_against_mheap =
  qtest ~count:200 "random add/pop interleaving matches Mheap"
    QCheck.(pair small_int (list_of_size (Gen.int_range 1 120) (int_range 0 2)))
    (fun (seed, script) ->
      let rng = Netsim.Rng.create seed in
      let h = Netsim.Eheap.create () in
      let m = Oracle.Mheap.create () in
      let next = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          if op < 2 then begin
            let time = Netsim.Rng.int rng 50 in
            Netsim.Eheap.add h ~time ~slot:!next;
            Oracle.Mheap.add m ~prio:time !next;
            incr next
          end
          else
            match (Netsim.Eheap.pop h, Oracle.Mheap.pop m) with
            | -1, None -> ()
            | slot, Some (prio, v) ->
              if slot <> v || Netsim.Eheap.popped_time h <> prio then ok := false
            | _, None -> ok := false)
        script;
      !ok && Netsim.Eheap.length h = Oracle.Mheap.length m)

let test_eheap_empty_and_clear () =
  let h = Netsim.Eheap.create () in
  Alcotest.(check bool) "empty" true (Netsim.Eheap.is_empty h);
  Alcotest.(check int) "pop empty" (-1) (Netsim.Eheap.pop h);
  Alcotest.(check int) "min_time empty" max_int (Netsim.Eheap.min_time h);
  for i = 1 to 10 do
    Netsim.Eheap.add h ~time:i ~slot:i
  done;
  Alcotest.(check int) "length" 10 (Netsim.Eheap.length h);
  Alcotest.(check int) "min_time" 1 (Netsim.Eheap.min_time h);
  Netsim.Eheap.clear h;
  Alcotest.(check int) "cleared" 0 (Netsim.Eheap.length h);
  Alcotest.(check int) "pop cleared" (-1) (Netsim.Eheap.pop h)

let test_eheap_pop_if_at_most () =
  let h = Netsim.Eheap.create () in
  List.iteri (fun i t -> Netsim.Eheap.add h ~time:t ~slot:i) [ 30; 10; 20 ];
  Alcotest.(check int) "below min" (-1) (Netsim.Eheap.pop_if_at_most h ~limit:9);
  Alcotest.(check int) "at min" 1 (Netsim.Eheap.pop_if_at_most h ~limit:10);
  Alcotest.(check int) "popped_time" 10 (Netsim.Eheap.popped_time h);
  Alcotest.(check int) "next within" 2 (Netsim.Eheap.pop_if_at_most h ~limit:25);
  Alcotest.(check int) "rest beyond" (-1) (Netsim.Eheap.pop_if_at_most h ~limit:25);
  Alcotest.(check int) "length" 1 (Netsim.Eheap.length h);
  Alcotest.(check int) "last" 0 (Netsim.Eheap.pop_if_at_most h ~limit:max_int);
  Alcotest.(check int) "drained" (-1) (Netsim.Eheap.pop_if_at_most h ~limit:max_int)

(* ------------------------------------------------------------------ *)
(* Differential: pooled engine vs the retained reference.

   Both engines satisfy the same module surface, so one interpreter
   runs the same random program — schedule (with nesting), cancel
   (live, fired and already-cancelled handles alike), step, run_until
   — on each, keeping per-engine id tables because handles are opaque
   and engine-specific. After every operation the observable state
   (clock, pending count, dispatch log) must agree exactly; at the end
   both run to quiescence and the full dispatch logs must be equal. *)

module type ENGINE = sig
  type t
  type event_id

  val create : ?obs:Obs.Sink.t -> unit -> t
  val now : t -> Netsim.Time.t
  val schedule : t -> delay:Netsim.Time.t -> (unit -> unit) -> event_id
  val cancel : t -> event_id -> unit
  val pending : t -> int
  val dispatched : t -> int
  val step : t -> bool
  val run : t -> unit
  val run_until : t -> Netsim.Time.t -> unit
end

type op =
  | Sched of int (* delay: a small range forces FIFO ties *)
  | Sched_nested of int * int (* on dispatch, schedule a child *)
  | Cancel of int (* cancel the k-th handle ever returned, any state *)
  | Step
  | Run_until of int (* horizon = now + dt *)
  | Burst of int (* n events at delays 0..4, enough to turn the wheel on *)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun d -> Sched d) (int_range 0 4));
        (2, map2 (fun d d' -> Sched_nested (d, d')) (int_range 0 4) (int_range 0 4));
        (3, map (fun k -> Cancel k) (int_range 0 40));
        (2, return Step);
        (1, map (fun dt -> Run_until dt) (int_range 0 6));
      ])

(* The same ops around the wheel's span W: delays of W - 1, W, W + 1
   and k W plus a small offset, horizons that jump past W, and small
   delays and steps that bring the clock close enough for later
   schedules to land in the wheel at times already queued in the
   overflow heap. A burst of 200 pending events turns the wheel on,
   at whatever point of the program it comes. Cancels then reach
   corpses in both parts. *)
let far_op_gen =
  let w = Netsim.Engine.wheel_span in
  QCheck.Gen.(
    let delay =
      frequency
        [
          (3, int_range 0 4);
          (3, map (fun off -> w + off) (int_range (-4) 4));
          ( 2,
            map2
              (fun k off -> (k * w) + off)
              (int_range 2 3) (int_range (-4) 4) );
        ]
    in
    frequency
      [
        (4, map (fun d -> Sched d) delay);
        (2, map2 (fun d d' -> Sched_nested (d, d')) delay delay);
        (3, map (fun k -> Cancel k) (int_range 0 40));
        (2, return Step);
        (1, map (fun dt -> Run_until dt) (int_range 0 6));
        (1, map (fun dt -> Run_until dt) (int_range (w - 4) ((2 * w) + 4)));
        (1, return (Burst 200));
      ])

let print_op = function
  | Sched d -> Printf.sprintf "Sched %d" d
  | Sched_nested (d, d') -> Printf.sprintf "Sched_nested (%d, %d)" d d'
  | Cancel k -> Printf.sprintf "Cancel %d" k
  | Step -> "Step"
  | Run_until dt -> Printf.sprintf "Run_until +%d" dt
  | Burst n -> Printf.sprintf "Burst %d" n

let program_of op_gen =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    QCheck.Gen.(list_size (int_range 1 60) op_gen)

let program_gen = program_of op_gen

module Interp (E : ENGINE) = struct
  type t = {
    e : E.t;
    log : (int * int) list ref; (* (tag, dispatch time), newest first *)
    mutable ids : E.event_id list; (* newest first *)
    mutable n_ids : int;
    mutable n_tags : int;
  }

  let create ?obs () =
    { e = E.create ?obs (); log = ref []; ids = []; n_ids = 0; n_tags = 0 }

  let fresh_tag t =
    let tag = t.n_tags in
    t.n_tags <- tag + 1;
    tag

  let remember t id =
    t.ids <- id :: t.ids;
    t.n_ids <- t.n_ids + 1

  let apply t op =
    match op with
    | Sched d ->
      let tag = fresh_tag t in
      remember t
        (E.schedule t.e ~delay:d (fun () ->
             t.log := (tag, E.now t.e) :: !(t.log)))
    | Sched_nested (d, d') ->
      let tag = fresh_tag t in
      let tag' = fresh_tag t in
      remember t
        (E.schedule t.e ~delay:d (fun () ->
             t.log := (tag, E.now t.e) :: !(t.log);
             (* The child is scheduled mid-dispatch, so in the pooled
                engine it may reuse the slot just vacated. *)
             remember t
               (E.schedule t.e ~delay:d' (fun () ->
                    t.log := (tag', E.now t.e) :: !(t.log)))))
    | Cancel k ->
      if t.n_ids > 0 then E.cancel t.e (List.nth t.ids (k mod t.n_ids))
    | Step -> ignore (E.step t.e : bool)
    | Run_until dt -> E.run_until t.e (E.now t.e + dt)
    | Burst n ->
      for i = 0 to n - 1 do
        let tag = fresh_tag t in
        remember t
          (E.schedule t.e ~delay:(i mod 5) (fun () ->
               t.log := (tag, E.now t.e) :: !(t.log)))
      done

  let state t = (E.now t.e, E.pending t.e, E.dispatched t.e, !(t.log))
  let finish t = E.run t.e
end

module I_pooled = Interp (Netsim.Engine)
module I_reference = Interp (Oracle.Engine_reference)

let differential ops =
  let a = I_pooled.create () in
  let b = I_reference.create () in
  let ok =
    List.for_all
      (fun op ->
        I_pooled.apply a op;
        I_reference.apply b op;
        I_pooled.state a = I_reference.state b)
      ops
  in
  I_pooled.finish a;
  I_reference.finish b;
  ok && I_pooled.state a = I_reference.state b

let test_differential =
  qtest ~count:500 "pooled engine == reference on random programs" program_gen
    differential

let test_differential_wheel =
  qtest ~count:500 "wheel boundary: pooled == reference"
    (program_of far_op_gen) differential

let test_differential_obs_identical =
  (* An enabled sink must not change behaviour: same clock, same
     pending counts, same dispatch order as the uninstrumented run. *)
  qtest ~count:200 "instrumented run behaves identically" program_gen
    (fun ops ->
      let plain = I_pooled.create () in
      let instr = I_pooled.create ~obs:(Obs.Sink.create ()) () in
      let ok =
        List.for_all
          (fun op ->
            I_pooled.apply plain op;
            I_pooled.apply instr op;
            I_pooled.state plain = I_pooled.state instr)
          ops
      in
      I_pooled.finish plain;
      I_pooled.finish instr;
      ok && I_pooled.state plain = I_pooled.state instr)

(* ------------------------------------------------------------------ *)
(* Ranked posting: timelines fed from a cursor (reserve + post_ranked,
   one pending event per timeline) against the same timelines posted
   up front with post_at. Each timeline event logs itself and posts
   children at delays around the wheel's span, so they tie with later
   timeline events; a burst turns the wheel on mid-run, and some cases
   never turn it on. Events posted after the reservations tie with
   timeline events too. Dispatch log, dispatch count and the
   snapshot's tie-break counter must all agree. *)

type ranked_case = {
  pre : int list;  (* delays of events scheduled before the timelines *)
  streams : (int * int list * bool) list list;
      (* per timeline, sorted: (time, child delays, burst) *)
  after : int list;  (* absolute times posted after the timelines *)
}

let ranked_case_gen =
  let w = Netsim.Engine.wheel_span in
  let step = QCheck.Gen.oneofl [ 0; 1; 2; w - 1; w; w + 1; 2 * w ] in
  QCheck.Gen.(
    let event =
      triple step (list_size (int_range 0 2) step) (frequency [ (30, return false); (1, return true) ])
    in
    let stream =
      map
        (fun evs ->
          (* Cumulative steps make a sorted timeline with ties. *)
          let at = ref 0 in
          List.map (fun (step, kids, burst) -> at := !at + step; (!at, kids, burst)) evs)
        (list_size (int_range 0 60) event)
    in
    map3
      (fun pre streams after -> { pre; streams; after })
      (list_size (int_range 0 20) step)
      (list_size (int_range 1 3) stream)
      (list_size (int_range 0 10) (map2 (fun k d -> (k * w) + d) (int_range 0 4) step)))

let print_ranked_case c =
  let ev (at, kids, burst) =
    Printf.sprintf "%d[%s]%s" at (String.concat "," (List.map string_of_int kids))
      (if burst then "!" else "")
  in
  Printf.sprintf "pre=[%s] streams=[%s] after=[%s]"
    (String.concat ";" (List.map string_of_int c.pre))
    (String.concat " | " (List.map (fun s -> String.concat ";" (List.map ev s)) c.streams))
    (String.concat ";" (List.map string_of_int c.after))

(* The tie-break counter is the third int of the engine's section;
   the pool's free list and generations follow it. *)
let scheduled_total e =
  let module R = Netsim.Snapshot.R in
  let sec = Netsim.Engine.save e in
  Netsim.Snapshot.read sec ~name:(Netsim.Snapshot.section_name sec)
    ~version:(Netsim.Snapshot.section_version sec) (fun r ->
      ignore (R.int r);
      ignore (R.int r);
      let total = R.int r in
      ignore (R.int r);
      ignore (R.int_array r);
      ignore (R.int_array r);
      total)

let run_ranked_case ~cursor c =
  let module E = Netsim.Engine in
  let e = E.create () in
  let log = ref [] in
  let note tag = log := (tag, E.now e) :: !log in
  List.iteri (fun k d -> E.post e ~delay:d (fun () -> note (-1, k, 0))) c.pre;
  let fire si i (_, kids, burst) =
    note (si, i, 0);
    List.iteri (fun j d -> E.post e ~delay:d (fun () -> note (si, i, j + 1))) kids;
    if burst then
      for j = 0 to 149 do
        E.post e ~delay:(j mod 5) (fun () -> note (si, i, 100 + j))
      done
  in
  List.iteri
    (fun si stream ->
      if cursor then begin
        let base = E.reserve e (List.length stream) in
        let rec post_from i = function
          | [] -> ()
          | ((at, _, _) as ev) :: rest ->
            E.post_ranked e ~at ~rank:(base + i) (fun () ->
                post_from (i + 1) rest;
                fire si i ev)
        in
        post_from 0 stream
      end
      else List.iteri (fun i ((at, _, _) as ev) -> E.post_at e ~at (fun () -> fire si i ev)) stream)
    c.streams;
  List.iteri (fun k at -> E.post_at e ~at (fun () -> note (-2, k, 0))) c.after;
  E.run e;
  (List.rev !log, E.dispatched e, scheduled_total e)

let test_ranked_cursor_matches_eager =
  qtest ~count:500 "ranked cursor == eager posting"
    (QCheck.make ~print:print_ranked_case ranked_case_gen)
    (fun c -> run_ranked_case ~cursor:true c = run_ranked_case ~cursor:false c)

let test_reserve_needs_empty_wheel () =
  let e = Netsim.Engine.create () in
  ignore (Netsim.Engine.reserve e 3 : int);
  for i = 0 to 199 do
    Netsim.Engine.post e ~delay:(i mod 5) ignore
  done;
  Alcotest.check_raises "wheel holds events"
    (Invalid_argument "Engine.reserve: the wheel holds events") (fun () ->
      ignore (Netsim.Engine.reserve e 1 : int))

(* ------------------------------------------------------------------ *)
(* Generation-tagged reuse *)

let test_stale_id_after_fire () =
  let e = Netsim.Engine.create () in
  let a = Netsim.Engine.schedule e ~delay:1 (fun () -> ()) in
  Alcotest.(check bool) "a fires" true (Netsim.Engine.step e);
  (* The slot a occupied is free again; the next schedule reuses it. *)
  let fired_b = ref false in
  let _b = Netsim.Engine.schedule e ~delay:1 (fun () -> fired_b := true) in
  Netsim.Engine.cancel e a;
  (* stale: same slot, older generation *)
  Netsim.Engine.run e;
  Alcotest.(check bool) "b unaffected by stale cancel" true !fired_b;
  Alcotest.(check int) "nothing pending" 0 (Netsim.Engine.pending e)

let test_stale_id_after_cancel_and_reap () =
  let e = Netsim.Engine.create () in
  let a = Netsim.Engine.schedule e ~delay:5 (fun () -> Alcotest.fail "cancelled event fired") in
  Netsim.Engine.cancel e a;
  Netsim.Engine.cancel e a;
  (* double cancel: no-op *)
  Alcotest.(check int) "not pending" 0 (Netsim.Engine.pending e);
  (* Reaping the corpse advances the clock, as in the reference. *)
  Alcotest.(check bool) "reap step" true (Netsim.Engine.step e);
  Alcotest.(check int) "clock at corpse time" 5 (Netsim.Engine.now e);
  let fired_b = ref false in
  let _b = Netsim.Engine.schedule e ~delay:1 (fun () -> fired_b := true) in
  Netsim.Engine.cancel e a;
  (* stale after slot reuse *)
  Netsim.Engine.run e;
  Alcotest.(check bool) "b fires" true !fired_b

let test_reschedule_from_own_thunk () =
  (* An event that reschedules itself reuses its own slot, and the old
     handle goes stale immediately. *)
  let e = Netsim.Engine.create () in
  let count = ref 0 in
  let first = ref Netsim.Engine.no_event in
  let rec tick () =
    incr count;
    if !count < 3 then begin
      let id = Netsim.Engine.schedule e ~delay:1 tick in
      if !count = 1 then Netsim.Engine.cancel e !first;
      (* stale: already fired *)
      ignore id
    end
  in
  first := Netsim.Engine.schedule e ~delay:1 tick;
  Netsim.Engine.run e;
  Alcotest.(check int) "three ticks" 3 !count;
  Alcotest.(check int) "clock" 3 (Netsim.Engine.now e)

let test_cancel_no_event () =
  let e = Netsim.Engine.create () in
  Netsim.Engine.cancel e Netsim.Engine.no_event;
  let fired = ref false in
  Netsim.Engine.post e ~delay:1 (fun () -> fired := true);
  Netsim.Engine.cancel e Netsim.Engine.no_event;
  Netsim.Engine.run e;
  Alcotest.(check bool) "posted event fires" true !fired

let test_pool_growth_under_load () =
  (* Push the pool through several growth doublings with a mix of
     live and cancelled events; everything live must still fire. *)
  let e = Netsim.Engine.create () in
  let fired = ref 0 in
  let cancelled_fired = ref 0 in
  let n = 10_000 in
  let ids =
    Array.init n (fun i ->
        Netsim.Engine.schedule e ~delay:(1 + (i mod 97)) (fun () -> incr fired))
  in
  for i = 0 to n - 1 do
    if i mod 3 = 0 then begin
      Netsim.Engine.cancel e ids.(i);
      ids.(i) <- Netsim.Engine.schedule e ~delay:(1 + (i mod 89)) (fun () ->
          incr cancelled_fired)
    end
  done;
  Netsim.Engine.run e;
  let replaced = (n + 2) / 3 in
  Alcotest.(check int) "survivors fired" (n - replaced) !fired;
  Alcotest.(check int) "replacements fired" replaced !cancelled_fired;
  Alcotest.(check int) "drained" 0 (Netsim.Engine.pending e)

(* ------------------------------------------------------------------ *)
(* Sweep *)

let test_sweep_map_matches_sequential () =
  let job seed =
    let rng = Netsim.Rng.create seed in
    let acc = ref 0 in
    for _ = 1 to 1000 do
      acc := !acc + Netsim.Rng.int rng 1000
    done;
    !acc
  in
  let seeds = List.init 10 (fun i -> i * 3) in
  let seq = Netsim.Sweep.map ~domains:1 ~seeds job in
  let par =
    Netsim.Sweep.map ~domains:(Netsim.Sweep.domains_available ()) ~seeds job
  in
  Alcotest.(check (list (pair int int))) "identical per-seed results" seq par;
  Alcotest.(check (list int)) "input order preserved" seeds (List.map fst seq)

let test_sweep_engine_jobs_deterministic () =
  (* Each job runs its own engine; parallel domains must not perturb
     the per-seed simulation. *)
  let job seed =
    let e = Netsim.Engine.create () in
    let rng = Netsim.Rng.create seed in
    let hits = ref [] in
    for _ = 1 to 50 do
      Netsim.Engine.post e ~delay:(Netsim.Rng.int rng 100) (fun () ->
          hits := Netsim.Engine.now e :: !hits)
    done;
    Netsim.Engine.run e;
    (Netsim.Engine.now e, List.rev !hits)
  in
  let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let seq = Netsim.Sweep.map ~domains:1 ~seeds job in
  let par = Netsim.Sweep.map ~seeds job in
  Alcotest.(check bool) "identical" true (seq = par)

let test_sweep_map_obs_merges () =
  let seeds = [ 1; 2; 3; 4 ] in
  let results, merged =
    Netsim.Sweep.map_obs ~seeds (fun seed sink ->
        let c = Obs.Sink.counter sink "sweep.test.jobs" in
        Obs.Metrics.Counter.incr c;
        let w = Obs.Sink.counter sink "sweep.test.weight" in
        Obs.Metrics.Counter.add w seed;
        let h = Obs.Sink.histogram sink "sweep.test.hist" in
        Obs.Histogram.add h (float_of_int seed);
        seed * 2)
  in
  Alcotest.(check (list (pair int int)))
    "results in order"
    [ (1, 2); (2, 4); (3, 6); (4, 8) ]
    results;
  Alcotest.(check int) "counters add" 4
    (Obs.Metrics.Counter.value (Obs.Metrics.counter merged "sweep.test.jobs"));
  Alcotest.(check int) "weights sum" 10
    (Obs.Metrics.Counter.value (Obs.Metrics.counter merged "sweep.test.weight"));
  Alcotest.(check int) "histogram pools all samples" 4
    (Obs.Histogram.count (Obs.Metrics.histogram merged "sweep.test.hist"))

let test_sweep_empty_and_single () =
  Alcotest.(check (list (pair int int))) "no seeds" []
    (Netsim.Sweep.map ~seeds:[] (fun s -> s));
  Alcotest.(check (list (pair int int))) "one seed" [ (7, 49) ]
    (Netsim.Sweep.map ~seeds:[ 7 ] (fun s -> s * s))

let test_sweep_propagates_exception () =
  Alcotest.(check bool) "job exception reaches caller" true
    (try
       ignore (Netsim.Sweep.map ~seeds:[ 1; 2; 3 ] (fun s ->
            if s = 2 then failwith "boom" else s));
       false
     with Failure _ -> true)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "engine_pool"
    [
      ( "eheap",
        [
          test_eheap_sorted_fifo;
          test_eheap_against_mheap;
          Alcotest.test_case "empty/clear" `Quick test_eheap_empty_and_clear;
          Alcotest.test_case "pop_if_at_most" `Quick test_eheap_pop_if_at_most;
        ] );
      ( "differential",
        [
          test_differential;
          test_differential_obs_identical;
          test_differential_wheel;
        ] );
      ( "ranked",
        [
          test_ranked_cursor_matches_eager;
          Alcotest.test_case "reserve needs an empty wheel" `Quick
            test_reserve_needs_empty_wheel;
        ] );
      ( "generations",
        [
          Alcotest.test_case "stale id after fire" `Quick test_stale_id_after_fire;
          Alcotest.test_case "stale id after cancel+reap" `Quick
            test_stale_id_after_cancel_and_reap;
          Alcotest.test_case "reschedule from own thunk" `Quick
            test_reschedule_from_own_thunk;
          Alcotest.test_case "cancel no_event" `Quick test_cancel_no_event;
          Alcotest.test_case "pool growth under load" `Quick
            test_pool_growth_under_load;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "map matches sequential" `Quick
            test_sweep_map_matches_sequential;
          Alcotest.test_case "engine jobs deterministic" `Quick
            test_sweep_engine_jobs_deterministic;
          Alcotest.test_case "map_obs merges" `Quick test_sweep_map_obs_merges;
          Alcotest.test_case "empty/single" `Quick test_sweep_empty_and_single;
          Alcotest.test_case "exceptions propagate" `Quick
            test_sweep_propagates_exception;
        ] );
    ]
