(* The pooled engine core: Eheap, differential equivalence against the
   retained reference engine, pool slot reuse, and the parallel sweep
   runner. *)

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
   runs the same random program — post (with nesting), step,
   run_until — on each. After every operation the observable state
   (clock, pending count, dispatch log) must agree exactly; at the end
   both run to quiescence and the full dispatch logs must be equal. *)

module type ENGINE = sig
  type t

  val create : ?obs:Obs.Sink.t -> unit -> t
  val now : t -> Netsim.Time.t
  val post : t -> delay:Netsim.Time.t -> (unit -> unit) -> unit
  val pending : t -> int
  val dispatched : t -> int
  val step : t -> bool
  val run : t -> unit
  val run_until : t -> Netsim.Time.t -> unit
end

type op =
  | Sched of int (* delay: a small range forces FIFO ties *)
  | Sched_nested of int * int (* on dispatch, post a child *)
  | Step
  | Run_until of int (* horizon = now + dt *)
  | Burst of int (* n events at delays 0..4, enough to turn the wheel on *)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun d -> Sched d) (int_range 0 4));
        (2, map2 (fun d d' -> Sched_nested (d, d')) (int_range 0 4) (int_range 0 4));
        (2, return Step);
        (1, map (fun dt -> Run_until dt) (int_range 0 6));
      ])

(* The same ops around the wheel's span W: delays of W - 1, W, W + 1
   and k W plus a small offset, horizons that jump past W, and small
   delays and steps that bring the clock close enough for later
   posts to land in the wheel at times already queued in the overflow
   heap. A burst of 200 pending events turns the wheel on, at
   whatever point of the program it comes. *)
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
        (2, return Step);
        (1, map (fun dt -> Run_until dt) (int_range 0 6));
        (1, map (fun dt -> Run_until dt) (int_range (w - 4) ((2 * w) + 4)));
        (1, return (Burst 200));
      ])

let print_op = function
  | Sched d -> Printf.sprintf "Sched %d" d
  | Sched_nested (d, d') -> Printf.sprintf "Sched_nested (%d, %d)" d d'
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
    mutable n_tags : int;
  }

  let create ?obs () = { e = E.create ?obs (); log = ref []; n_tags = 0 }

  let fresh_tag t =
    let tag = t.n_tags in
    t.n_tags <- tag + 1;
    tag

  let apply t op =
    match op with
    | Sched d ->
      let tag = fresh_tag t in
      E.post t.e ~delay:d (fun () -> t.log := (tag, E.now t.e) :: !(t.log))
    | Sched_nested (d, d') ->
      let tag = fresh_tag t in
      let tag' = fresh_tag t in
      E.post t.e ~delay:d (fun () ->
          t.log := (tag, E.now t.e) :: !(t.log);
          (* The child is posted mid-dispatch, so in the pooled engine
             it may reuse the slot just vacated. *)
          E.post t.e ~delay:d' (fun () ->
              t.log := (tag', E.now t.e) :: !(t.log)))
    | Step -> ignore (E.step t.e : bool)
    | Run_until dt -> E.run_until t.e (E.now t.e + dt)
    | Burst n ->
      for i = 0 to n - 1 do
        let tag = fresh_tag t in
        E.post t.e ~delay:(i mod 5) (fun () ->
            t.log := (tag, E.now t.e) :: !(t.log))
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
(* Handler events: random programs mixing closure posts, posts to
   several handlers, ranked cursors and delays on both sides of the
   wheel's span, against the reference, where a handler event is a
   closure over its payload. *)

module type EVENT_ENGINE = sig
  include ENGINE

  type kind

  val handler : t -> (int -> unit) -> kind
  val post_event : t -> delay:Netsim.Time.t -> kind -> int -> unit
  val post_event_at : t -> at:Netsim.Time.t -> kind -> int -> unit
  val reserve : t -> int -> int
  val post_event_ranked : t -> at:Netsim.Time.t -> rank:int -> kind -> int -> unit
end

type event_op =
  | Thunk of int * int option  (* delay, the delay of a child thunk *)
  | Event of int * int * int option  (* handler, delay, the delay of a child event *)
  | Event_at of int * int  (* handler, time ahead of the clock *)
  | Cursor of (int * int option) list
      (* a sorted timeline from the clock: (step, delay of a child
         event); reserved and started if nothing is pending *)
  | E_step
  | E_run_until of int
  | Mixed_burst of int  (* n posts, closures and events in turn *)

let handlers = 3

let event_op_gen =
  let w = Netsim.Engine.wheel_span in
  QCheck.Gen.(
    let delay =
      frequency
        [
          (4, int_range 0 4);
          (2, map (fun off -> w + off) (int_range (-4) 4));
          (1, map2 (fun k off -> (k * w) + off) (int_range 2 3) (int_range (-4) 4));
        ]
    in
    let child = frequency [ (2, return None); (1, map Option.some delay) ] in
    frequency
      [
        (3, map2 (fun d c -> Thunk (d, c)) delay child);
        (4, map3 (fun h d c -> Event (h, d, c)) (int_range 0 (handlers - 1)) delay child);
        (1, map2 (fun h d -> Event_at (h, d)) (int_range 0 (handlers - 1)) delay);
        ( 1,
          map
            (fun evs -> Cursor evs)
            (list_size (int_range 1 12)
               (pair (oneofl [ 0; 0; 1; 3; w - 1; w; w + 1 ]) child)) );
        (3, return E_step);
        (1, map (fun dt -> E_run_until dt) (int_range 0 6));
        (1, map (fun dt -> E_run_until dt) (int_range (w - 4) ((2 * w) + 4)));
        (1, return (Mixed_burst 200));
      ])

let print_event_op =
  let opt = function None -> "-" | Some d -> string_of_int d in
  function
  | Thunk (d, c) -> Printf.sprintf "Thunk (%d, %s)" d (opt c)
  | Event (h, d, c) -> Printf.sprintf "Event (%d, %d, %s)" h d (opt c)
  | Event_at (h, d) -> Printf.sprintf "Event_at (%d, +%d)" h d
  | Cursor evs ->
    Printf.sprintf "Cursor [%s]"
      (String.concat "; " (List.map (fun (s, c) -> Printf.sprintf "%d,%s" s (opt c)) evs))
  | E_step -> "Step"
  | E_run_until dt -> Printf.sprintf "Run_until +%d" dt
  | Mixed_burst n -> Printf.sprintf "Mixed_burst %d" n

(* Every dispatch logs (source, tag, time): -1 for a thunk, the
   handler's index, or [handlers] for a cursor entry. A handler's
   payload is its tag shifted past 16 bits, over a child delay plus
   one (0: no child). *)
module Event_interp (E : EVENT_ENGINE) = struct
  type t = {
    e : E.t;
    log : (int * int * int) list ref;
    mutable n_tags : int;
    kinds : E.kind array;
    mutable cursors : (int * int * (int * int option) array) list;
        (* per cursor: its id, its first rank and its (time, child) entries *)
    mutable n_cursors : int;
    cursor_kind : E.kind;
  }

  let fresh_tag t =
    let tag = t.n_tags in
    t.n_tags <- tag + 1;
    tag

  let note t src tag = t.log := (src, tag, E.now t.e) :: !(t.log)

  let payload tag child =
    (tag lsl 16) lor match child with None -> 0 | Some d -> d + 1

  let post_thunk t d child =
    let tag = fresh_tag t in
    E.post t.e ~delay:d (fun () ->
        note t (-1) tag;
        match child with
        | None -> ()
        | Some d' ->
          let tag' = fresh_tag t in
          E.post t.e ~delay:d' (fun () -> note t (-1) tag'))

  let post_event t h d child = E.post_event t.e ~delay:d t.kinds.(h) (payload (fresh_tag t) child)

  let on_event t h p =
    note t h (p lsr 16);
    let c = p land 0xffff in
    if c > 0 then
      (* The child goes to the next handler, posted mid-dispatch. *)
      post_event t ((h + 1) mod handlers) (c - 1) None

  let on_cursor t p =
    let id = p lsr 16 and i = p land 0xffff in
    let _, base, entries = List.find (fun (id', _, _) -> id' = id) t.cursors in
    note t handlers ((id lsl 16) lor i);
    if i + 1 < Array.length entries then
      E.post_event_ranked t.e ~at:(fst entries.(i + 1)) ~rank:(base + i + 1)
        t.cursor_kind ((id lsl 16) lor (i + 1));
    match snd entries.(i) with
    | None -> ()
    | Some d -> post_event t (i mod handlers) d None

  let create () =
    let e = E.create () in
    let self = ref None in
    let get () = Option.get !self in
    let kinds = Array.init handlers (fun h -> E.handler e (fun p -> on_event (get ()) h p)) in
    let cursor_kind = E.handler e (fun p -> on_cursor (get ()) p) in
    let t =
      { e; log = ref []; n_tags = 0; kinds; cursors = []; n_cursors = 0; cursor_kind }
    in
    self := Some t;
    t

  let apply t = function
    | Thunk (d, c) -> post_thunk t d c
    | Event (h, d, c) -> post_event t h d c
    | Event_at (h, d) ->
      E.post_event_at t.e ~at:(E.now t.e + d) t.kinds.(h) (payload (fresh_tag t) None)
    | Cursor evs ->
      (* A reservation needs an empty wheel; an empty engine is the
         case both engines can see. *)
      if E.pending t.e = 0 then begin
        let at = ref (E.now t.e) in
        let entries =
          Array.of_list (List.map (fun (step, c) -> at := !at + step; (!at, c)) evs)
        in
        let id = t.n_cursors in
        t.n_cursors <- id + 1;
        let base = E.reserve t.e (Array.length entries) in
        t.cursors <- (id, base, entries) :: t.cursors;
        E.post_event_ranked t.e ~at:(fst entries.(0)) ~rank:base t.cursor_kind (id lsl 16)
      end
    | E_step -> ignore (E.step t.e : bool)
    | E_run_until dt -> E.run_until t.e (E.now t.e + dt)
    | Mixed_burst n ->
      for i = 0 to n - 1 do
        if i land 1 = 0 then post_thunk t (i mod 5) None
        else post_event t (i mod handlers) (i mod 7) None
      done

  let state t = (E.now t.e, E.pending t.e, E.dispatched t.e, !(t.log))
end

module E_pooled = Event_interp (Netsim.Engine)
module E_reference = Event_interp (Oracle.Engine_reference)

let test_differential_events =
  qtest ~count:500 "handler events, thunks and cursors: pooled == reference"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_event_op ops))
       QCheck.Gen.(list_size (int_range 1 60) event_op_gen))
    (fun ops ->
      let a = E_pooled.create () and b = E_reference.create () in
      let ok =
        List.for_all
          (fun op ->
            E_pooled.apply a op;
            E_reference.apply b op;
            E_pooled.state a = E_reference.state b)
          ops
      in
      Netsim.Engine.run a.e;
      Oracle.Engine_reference.run b.e;
      ok && E_pooled.state a = E_reference.state b)

(* 10^5 post/dispatch cycles of a handler event allocate nothing, on a
   shallow heap and with the wheel on under a 1,000-event backlog. *)
let test_handler_events_allocate_nothing () =
  let module E = Netsim.Engine in
  let cycles e k =
    let w0 = Gc.minor_words () in
    for i = 1 to 100_000 do
      E.post_event e ~delay:(i land 3) k i;
      ignore (E.step e : bool)
    done;
    Gc.minor_words () -. w0
  in
  let sum = ref 0 in
  let e = E.create () in
  let k = E.handler e (fun p -> sum := !sum + p) in
  ignore (cycles e k);
  Alcotest.(check (float 0.)) "shallow" 0. (cycles e k);
  let e = E.create () in
  let k = E.handler e (fun p -> sum := !sum + p) in
  for i = 0 to 999 do
    E.post_event e ~delay:(1_000_000_000 + i) k 0
  done;
  for i = 0 to 199 do
    E.post_event e ~delay:(i mod 5) k 0
  done;
  ignore (cycles e k);
  Alcotest.(check (float 0.)) "wheel on, 1k backlog" 0. (cycles e k)

let test_unregistered_kind () =
  let module E = Netsim.Engine in
  let a = E.create () and b = E.create () in
  ignore (E.handler a ignore);
  let k = E.handler a ignore in
  let raises name f =
    Alcotest.check_raises name
      (Invalid_argument "Engine.post_event: kind not registered with this engine") f
  in
  raises "post_event" (fun () -> E.post_event b ~delay:0 k 0);
  raises "post_event_at" (fun () -> E.post_event_at b ~at:0 k 0);
  raises "post_event_ranked" (fun () ->
      let rank = E.reserve b 1 in
      E.post_event_ranked b ~at:0 ~rank k 0);
  Alcotest.(check int) "nothing queued" 0 (E.pending b)

(* ------------------------------------------------------------------ *)
(* Ranked posting: timelines fed from a cursor (reserve +
   post_event_ranked, one pending handler event per timeline) against
   the same timelines posted up front with post_at. Each timeline event
   logs itself and posts children at delays around the wheel's span,
   so they tie with later timeline events; a burst turns the wheel on
   mid-run, and some cases never turn it on. Events posted after the
   reservations tie with timeline events too. Dispatch log, dispatch
   count and the snapshot's tie-break counter must all agree. *)

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
   the pool's free list follows it. *)
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
        (* One handler per timeline; the payload is the event's index. *)
        let evs = Array.of_list stream in
        let n = Array.length evs in
        let base = E.reserve e n in
        let post_from kind i =
          if i < n then
            let at, _, _ = evs.(i) in
            E.post_event_ranked e ~at ~rank:(base + i) kind i
        in
        let rec kind =
          lazy
            (E.handler e (fun i ->
                 post_from (Lazy.force kind) (i + 1);
                 fire si i evs.(i)))
        in
        post_from (Lazy.force kind) 0
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
(* Pool reuse *)

let test_repost_from_own_thunk () =
  (* An event that posts its successor reuses its own slot. *)
  let e = Netsim.Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 3 then Netsim.Engine.post e ~delay:1 tick
  in
  Netsim.Engine.post e ~delay:1 tick;
  Netsim.Engine.run e;
  Alcotest.(check int) "three ticks" 3 !count;
  Alcotest.(check int) "clock" 3 (Netsim.Engine.now e)

let test_pool_growth_under_load () =
  (* Push the pool through several growth doublings with a mix of
     live and retired timers (a stamp per timer, bumped to retire it
     and post a replacement); every timer fires, and exactly the live
     ones act. *)
  let e = Netsim.Engine.create () in
  let fired = ref 0 in
  let acted = ref 0 in
  let n = 10_000 in
  let stamps = Array.make n 0 in
  let arm i delay =
    let stamp = stamps.(i) in
    Netsim.Engine.post e ~delay (fun () ->
        incr fired;
        if stamps.(i) = stamp then incr acted)
  in
  for i = 0 to n - 1 do
    arm i (1 + (i mod 97))
  done;
  let replaced = (n + 2) / 3 in
  for i = 0 to n - 1 do
    if i mod 3 = 0 then begin
      stamps.(i) <- stamps.(i) + 1;
      arm i (1 + (i mod 89))
    end
  done;
  Alcotest.(check int) "every timer queued" (n + replaced)
    (Netsim.Engine.pending e);
  Netsim.Engine.run e;
  Alcotest.(check int) "every timer fired" (n + replaced) !fired;
  Alcotest.(check int) "live timers acted" n !acted;
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
      ( "handlers",
        [
          test_differential_events;
          Alcotest.test_case "post+dispatch allocates nothing" `Quick
            test_handler_events_allocate_nothing;
          Alcotest.test_case "unregistered kind" `Quick test_unregistered_kind;
        ] );
      ( "ranked",
        [
          test_ranked_cursor_matches_eager;
          Alcotest.test_case "reserve needs an empty wheel" `Quick
            test_reserve_needs_empty_wheel;
        ] );
      ( "pool",
        [
          Alcotest.test_case "repost from own thunk" `Quick
            test_repost_from_own_thunk;
          Alcotest.test_case "growth under load" `Quick
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
