(* Tests for the observability layer: histogram accuracy against the
   exact keep-all distribution, trace ring-buffer semantics, Chrome
   JSON round-trip, metrics export, and the disabled-sink contract. *)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* The exporters' output is parsed back with the library's own reader
   (Obs.Json, also behind [an2sim report]); aliased so the round-trip
   tests below read naturally. *)
module Json = Obs.Json

(* ------------------------------------------------------------------ *)
(* Histogram *)

(* With 101 samples, percentile ranks p*(count-1)/100 are integral for
   integer p, so Distribution's linear interpolation lands exactly on
   a sample and the nearest-rank histogram answer must agree within
   the documented relative error. *)
let test_histogram_matches_distribution =
  qtest "Histogram.percentile tracks Stats.Distribution" ~count:100
    QCheck.(list_of_size (QCheck.Gen.return 101) (int_range 1 10_000_000))
    (fun samples ->
      let h = Obs.Histogram.create () in
      let d = Netsim.Stats.Distribution.create () in
      List.iter
        (fun i ->
          let x = float_of_int i /. 100.0 in
          Obs.Histogram.add h x;
          Netsim.Stats.Distribution.add d x)
        samples;
      List.for_all
        (fun p ->
          let exact = Netsim.Stats.Distribution.percentile d p in
          let approx = Obs.Histogram.percentile h p in
          abs_float (approx -. exact)
          <= (Obs.Histogram.error_bound *. exact) +. 1e-9)
        [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 ])

let test_histogram_exact_extremes () =
  let h = Obs.Histogram.create () in
  List.iter (Obs.Histogram.add h) [ 3.5; 17.0; 0.25; 9.0 ];
  Alcotest.(check (float 0.0)) "min exact" 0.25 (Obs.Histogram.min h);
  Alcotest.(check (float 0.0)) "max exact" 17.0 (Obs.Histogram.max h);
  Alcotest.(check int) "count" 4 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 29.75 (Obs.Histogram.sum h)

let test_histogram_zero_bucket () =
  let h = Obs.Histogram.create () in
  Obs.Histogram.add h 0.0;
  Obs.Histogram.add h (-5.0);
  Obs.Histogram.add h 100.0;
  Alcotest.(check int) "count includes nonpositive" 3 (Obs.Histogram.count h);
  Alcotest.(check (float 0.0)) "median is zero" 0.0 (Obs.Histogram.median h)

let test_histogram_empty () =
  let h = Obs.Histogram.create () in
  Alcotest.(check bool) "percentile nan" true
    (Float.is_nan (Obs.Histogram.percentile h 50.0));
  Alcotest.(check (float 0.0)) "mean 0" 0.0 (Obs.Histogram.mean h)

(* ------------------------------------------------------------------ *)
(* Trace ring buffer *)

let test_trace_ring_overwrites () =
  let t = Obs.Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    Obs.Trace.instant t ~name:"e" ~cat:"test" ~ts:i ~tid:0 ~v:i
  done;
  Alcotest.(check int) "total" 10 (Obs.Trace.total t);
  Alcotest.(check int) "length" 4 (Obs.Trace.length t);
  Alcotest.(check int) "dropped" 6 (Obs.Trace.dropped t);
  let seen = ref [] in
  Obs.Trace.iter t (fun e -> seen := e.Obs.Trace.ev :: !seen);
  Alcotest.(check (list int)) "oldest first, tail kept" [ 6; 7; 8; 9 ]
    (List.rev !seen)

let test_trace_roundtrip () =
  let t = Obs.Trace.create ~capacity:64 () in
  Obs.Trace.span t ~name:"slot" ~cat:"fabric" ~ts:10 ~dur:5 ~tid:1 ~v:42;
  Obs.Trace.instant t ~name:"deadlock" ~cat:"flow" ~ts:20 ~tid:2 ~v:1;
  Obs.Trace.counter t ~name:"depth" ~cat:"engine" ~ts:30 ~v:7;
  let json = Json.parse (Obs.Trace.to_chrome_string ~ts_scale:2.0 t) in
  let events = Json.(arr (member "traceEvents" json)) in
  Alcotest.(check int) "event count" 3 (List.length events);
  let names = List.map (fun e -> Json.(str (member "name" e))) events in
  Alcotest.(check (list string)) "order preserved"
    [ "slot"; "deadlock"; "depth" ] names;
  let phases = List.map (fun e -> Json.(str (member "ph" e))) events in
  Alcotest.(check (list string)) "phases" [ "X"; "i"; "C" ] phases;
  let ts = List.map (fun e -> Json.(num (member "ts" e))) events in
  Alcotest.(check (list (float 1e-9))) "timestamps scaled"
    [ 20.0; 40.0; 60.0 ] ts;
  (match events with
   | span :: _ ->
     Alcotest.(check (float 1e-9)) "duration scaled" 10.0
       Json.(num (member "dur" span));
     Alcotest.(check (float 1e-9)) "arg v" 42.0
       Json.(num (member "v" (member "args" span)))
   | [] -> Alcotest.fail "no events");
  Alcotest.(check (float 0.0)) "nothing dropped" 0.0
    Json.(num (member "dropped" (member "otherData" json)))

let test_trace_roundtrip_after_wrap =
  qtest "trace JSON parses and keeps ordering after wrap" ~count:50
    QCheck.(int_range 1 200)
    (fun emitted ->
      let t = Obs.Trace.create ~capacity:16 () in
      for i = 0 to emitted - 1 do
        Obs.Trace.instant t ~name:"e" ~cat:"t" ~ts:i ~tid:0 ~v:i
      done;
      let json = Json.parse (Obs.Trace.to_chrome_string t) in
      let events = Json.(arr (member "traceEvents" json)) in
      let vs =
        List.map (fun e -> int_of_float Json.(num (member "v" (member "args" e)))) events
      in
      List.length events = min emitted 16
      && vs = List.init (min emitted 16) (fun k -> max 0 (emitted - 16) + k))

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_metrics_json_export () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "cells.transferred" in
  Obs.Metrics.Counter.add c 12;
  Obs.Metrics.Counter.incr c;
  let g = Obs.Metrics.gauge m "queue.depth" in
  Obs.Metrics.Gauge.set g 3.0;
  Obs.Metrics.Gauge.set g 1.5;
  let h = Obs.Metrics.histogram m "delay" in
  for i = 1 to 100 do
    Obs.Histogram.add h (float_of_int i)
  done;
  let json = Json.parse (Obs.Metrics.to_json_string m) in
  Alcotest.(check (float 0.0)) "counter" 13.0
    Json.(num (member "cells.transferred" (member "counters" json)));
  let gauge = Json.(member "queue.depth" (member "gauges" json)) in
  Alcotest.(check (float 0.0)) "gauge last" 1.5 Json.(num (member "last" gauge));
  Alcotest.(check (float 0.0)) "gauge max" 3.0 Json.(num (member "max" gauge));
  let hist = Json.(member "delay" (member "histograms" json)) in
  Alcotest.(check (float 0.0)) "hist count" 100.0
    Json.(num (member "count" hist));
  (* Nearest rank over 100 samples: round(0.5 * 99) = 50 -> the 51st
     sample, 51.0, within the histogram's ~1% relative error. *)
  let p50 = Json.(num (member "p50" hist)) in
  Alcotest.(check bool) "hist p50 near 51" true (abs_float (p50 -. 51.0) <= 1.0)

(* Every flight-recorder line must be a self-contained JSON object
   wrapping a full metrics snapshot. *)
let test_flight_jsonl_roundtrip () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.Counter.add (Obs.Metrics.counter m "msgs") 7;
  Obs.Metrics.Gauge.set (Obs.Metrics.gauge m "depth") 2.5;
  let f = Obs.Flight.create () in
  Obs.Flight.record f ~now:1_000 ~label:"run" m;
  Obs.Metrics.Counter.add (Obs.Metrics.counter m "msgs") 3;
  Obs.Flight.record f ~now:2_000 ~label:"run" m;
  Alcotest.(check int) "two snapshots" 2 (Obs.Flight.snapshots f);
  let lines =
    List.filter
      (fun l -> l <> "")
      (String.split_on_char '\n' (Obs.Flight.to_string f))
  in
  Alcotest.(check int) "two lines" 2 (List.length lines);
  let parsed = List.map Json.parse lines in
  Alcotest.(check (list (float 0.0))) "timestamps"
    [ 1_000.; 2_000. ]
    (List.map (fun j -> Json.(num (member "t" j))) parsed);
  Alcotest.(check (list (float 0.0))) "counter advances between lines"
    [ 7.; 10. ]
    (List.map
       (fun j ->
         Json.(num (member "msgs" (member "counters" (member "metrics" j)))))
       parsed);
  List.iter
    (fun j ->
      Alcotest.(check string) "label" "run" Json.(str (member "label" j)))
    parsed

let test_metrics_same_instrument () =
  let m = Obs.Metrics.create () in
  let a = Obs.Metrics.counter m "x" in
  let b = Obs.Metrics.counter m "x" in
  Obs.Metrics.Counter.incr a;
  Obs.Metrics.Counter.incr b;
  Alcotest.(check int) "one instrument" 2 (Obs.Metrics.Counter.value a)

(* ------------------------------------------------------------------ *)
(* Sink *)

let test_null_sink_is_noop () =
  Alcotest.(check bool) "disabled" false (Obs.Sink.enabled Obs.Sink.null);
  Obs.Sink.span Obs.Sink.null ~name:"s" ~cat:"c" ~ts:0 ~dur:1 ~tid:0 ~v:0;
  Obs.Sink.instant Obs.Sink.null ~name:"i" ~cat:"c" ~ts:0 ~tid:0 ~v:0;
  Obs.Sink.sample Obs.Sink.null ~name:"n" ~cat:"c" ~ts:0 ~v:0;
  Alcotest.(check int) "no events recorded" 0
    (Obs.Trace.total (Obs.Sink.trace Obs.Sink.null))

let test_enabled_sink_records () =
  let s = Obs.Sink.create () in
  Obs.Sink.instant s ~name:"i" ~cat:"c" ~ts:0 ~tid:0 ~v:0;
  Alcotest.(check int) "event recorded" 1 (Obs.Trace.total (Obs.Sink.trace s))

(* Chrome flow phases: s (start) / t (step) / f (end, bound to the
   enclosing slice's end) sharing one id — what the cluster emits to
   link a cross-partition send's enqueue, drain and dispatch. *)
let test_flow_phases_roundtrip () =
  let s = Obs.Sink.create () in
  Obs.Sink.flow_start s ~name:"xsend" ~cat:"cluster" ~ts:10 ~tid:0 ~id:4242;
  Obs.Sink.flow_step s ~name:"xdrain" ~cat:"cluster" ~ts:20 ~tid:1 ~id:4242;
  Obs.Sink.flow_end s ~name:"xdispatch" ~cat:"cluster" ~ts:30 ~tid:1 ~id:4242;
  let json =
    Json.parse (Obs.Trace.to_chrome_string ~ts_scale:1e-3 (Obs.Sink.trace s))
  in
  let events = Json.(arr (member "traceEvents" json)) in
  Alcotest.(check (list string)) "phases"
    [ "s"; "t"; "f" ]
    (List.map (fun e -> Json.(str (member "ph" e))) events);
  Alcotest.(check (list (float 0.0))) "one flow id across the arrow"
    [ 4242.; 4242.; 4242. ]
    (List.map (fun e -> Json.(num (member "id" e))) events);
  (match events with
   | [ st; step; fin ] ->
     Alcotest.(check bool) "no bp on s" true (Json.member_opt "bp" st = None);
     Alcotest.(check bool) "no bp on t" true (Json.member_opt "bp" step = None);
     Alcotest.(check string) "f binds to enclosing slice end" "e"
       Json.(str (member "bp" fin))
   | _ -> Alcotest.fail "expected exactly 3 events");
  Alcotest.(check (list string)) "hop names survive"
    [ "xsend"; "xdrain"; "xdispatch" ]
    (List.map (fun e -> Json.(str (member "name" e))) events)

(* The cluster merges per-partition sinks back into the caller's sink
   in fixed partition order. For everything except a gauge's [last]
   (explicitly order-dependent) that must equal single-sink recording
   of the interleaved stream: counters sum, gauge extrema and set
   counts combine, histograms merge bucket-wise exactly, and the
   merged trace retains every event. *)
let test_merge_order_equivalence =
  qtest "per-partition merge == interleaved single sink" ~count:200
    QCheck.(list (tup3 (int_range 0 2) (int_range 0 2) (int_range 1 100)))
    (fun ops ->
      let apply sink (kind, v) =
        match kind with
        | 0 -> Obs.Metrics.Counter.add (Obs.Sink.counter sink "c") v
        | 1 -> Obs.Metrics.Gauge.set (Obs.Sink.gauge sink "g") (float_of_int v)
        | _ ->
          Obs.Histogram.add (Obs.Sink.histogram sink "h") (float_of_int v);
          Obs.Sink.instant sink ~name:"i" ~cat:"t" ~ts:v ~tid:0 ~v
      in
      (* QCheck lists stay under 10,000 ops, so no trace ring wraps. *)
      let create () = Obs.Sink.create ~trace_capacity:16_384 () in
      let single = create () in
      let parts = Array.init 3 (fun _ -> create ()) in
      List.iter
        (fun (part, kind, v) ->
          apply single (kind, v);
          apply parts.(part) (kind, v))
        ops;
      let merged = create () in
      Array.iter (fun p -> Obs.Sink.merge_into ~into:merged p) parts;
      let ms = Obs.Sink.metrics single and mm = Obs.Sink.metrics merged in
      let counters_eq =
        Obs.Metrics.Counter.value (Obs.Metrics.counter ms "c")
        = Obs.Metrics.Counter.value (Obs.Metrics.counter mm "c")
      in
      let gs = Obs.Metrics.gauge ms "g" and gm = Obs.Metrics.gauge mm "g" in
      let gauges_eq =
        Obs.Metrics.Gauge.sets gs = Obs.Metrics.Gauge.sets gm
        && (Obs.Metrics.Gauge.sets gs = 0
            || Obs.Metrics.Gauge.min gs = Obs.Metrics.Gauge.min gm
               && Obs.Metrics.Gauge.max gs = Obs.Metrics.Gauge.max gm)
      in
      let hs = Obs.Metrics.histogram ms "h"
      and hm = Obs.Metrics.histogram mm "h" in
      let hists_eq =
        Obs.Histogram.count hs = Obs.Histogram.count hm
        && Obs.Histogram.sum hs = Obs.Histogram.sum hm
        && (Obs.Histogram.count hs = 0
            || List.for_all
                 (fun p ->
                   Obs.Histogram.percentile hs p
                   = Obs.Histogram.percentile hm p)
                 [ 50.0; 90.0; 99.0 ])
      in
      let traces_eq =
        Obs.Trace.total (Obs.Sink.trace single)
        = Obs.Trace.total (Obs.Sink.trace merged)
      in
      counters_eq && gauges_eq && hists_eq && traces_eq)

(* The debug ownership assertion: once a domain claims a sink, another
   domain emitting into it must trip Assert_failure (compiled out
   under -noassert, so probe first). *)
let test_cross_domain_claim_asserts () =
  let assertions_on =
    try
      assert (Sys.opaque_identity 1 = 2);
      false
    with Assert_failure _ -> true
  in
  if not assertions_on then ()
  else begin
    let s = Obs.Sink.create () in
    Obs.Sink.claim s;
    (* The claiming domain may emit freely... *)
    Obs.Sink.instant s ~name:"mine" ~cat:"t" ~ts:0 ~tid:0 ~v:0;
    (* ...a foreign domain must not. *)
    let tripped =
      Domain.join
        (Domain.spawn (fun () ->
             try
               Obs.Sink.instant s ~name:"theirs" ~cat:"t" ~ts:1 ~tid:0 ~v:0;
               false
             with Assert_failure _ -> true))
    in
    Alcotest.(check bool) "cross-domain emit trips the assertion" true tripped;
    Obs.Sink.release s;
    (* Released: any domain may use it again (e.g. the merge phase). *)
    let ok =
      Domain.join
        (Domain.spawn (fun () ->
             Obs.Sink.instant s ~name:"later" ~cat:"t" ~ts:2 ~tid:0 ~v:0;
             true))
    in
    Alcotest.(check bool) "release reopens the sink" true ok
  end

(* ------------------------------------------------------------------ *)
(* Engine.pending (live-count semantics) *)

let test_engine_pending_live_count () =
  let e = Netsim.Engine.create () in
  let fired = ref 0 in
  let a = Netsim.Engine.schedule e ~delay:10 (fun () -> incr fired) in
  let _b = Netsim.Engine.schedule e ~delay:20 (fun () -> incr fired) in
  let c = Netsim.Engine.schedule e ~delay:30 (fun () -> incr fired) in
  Alcotest.(check int) "three pending" 3 (Netsim.Engine.pending e);
  Netsim.Engine.cancel e a;
  Alcotest.(check int) "cancel drops the count" 2 (Netsim.Engine.pending e);
  Netsim.Engine.cancel e a;
  Alcotest.(check int) "double cancel is a no-op" 2 (Netsim.Engine.pending e);
  (* The first step reaps the cancelled corpse at the head of the
     queue without dispatching anything: the count must not move. *)
  ignore (Netsim.Engine.step e);
  Alcotest.(check int) "reaping leaves the count alone" 2
    (Netsim.Engine.pending e);
  Alcotest.(check int) "cancelled event skipped" 0 !fired;
  ignore (Netsim.Engine.step e);
  Alcotest.(check int) "dispatch drops the count" 1 (Netsim.Engine.pending e);
  Alcotest.(check int) "live event fired" 1 !fired;
  Netsim.Engine.run e;
  Alcotest.(check int) "drained" 0 (Netsim.Engine.pending e);
  Alcotest.(check int) "both live events fired" 2 !fired;
  (* Cancelling an already-fired event must not corrupt the count. *)
  Netsim.Engine.cancel e c;
  Alcotest.(check int) "cancel after fire is a no-op" 0 (Netsim.Engine.pending e)

let test_engine_obs_probes () =
  let obs = Obs.Sink.create () in
  let e = Netsim.Engine.create ~obs () in
  for i = 1 to 5 do
    ignore (Netsim.Engine.schedule e ~delay:(Netsim.Time.us i) (fun () -> ()))
  done;
  Netsim.Engine.run e;
  let m = Obs.Sink.metrics obs in
  Alcotest.(check int) "scheduled counted" 5
    (Obs.Metrics.Counter.value (Obs.Metrics.counter m "engine.events.scheduled"));
  Alcotest.(check int) "dispatched counted" 5
    (Obs.Metrics.Counter.value (Obs.Metrics.counter m "engine.events.dispatched"));
  Alcotest.(check int) "one span per dispatch" 5
    (Obs.Trace.total (Obs.Sink.trace obs))

(* ------------------------------------------------------------------ *)
(* The JSON printer *)

(* Nested finite values whose strings mix quotes, backslashes, control
   characters and multi-byte UTF-8 with plain ASCII. *)
let json_gen =
  let open QCheck.Gen in
  let piece =
    oneof
      [
        oneofl [ "\""; "\\"; "\n"; "\t"; "\r"; "\x00"; "\x1f"; "/" ];
        (* e-acute, the euro sign, and U+1D11E (four bytes) *)
        oneofl [ "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9d\x84\x9e" ];
        map (String.make 1) printable;
      ]
  in
  let str = map (String.concat "") (list_size (0 -- 6) piece) in
  let finite = map (fun x -> if Float.is_finite x then x else 0.5) float in
  let num =
    oneof
      [
        finite;
        map float_of_int int;
        oneofl
          [ 0.0; -0.0; 0.1; 1e-7; 1e17; 1e300; 5e-324; max_float; -.max_float ];
      ]
  in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun x -> Json.Num x) num;
        map (fun s -> Json.Str s) str;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               ( 1,
                 map (fun l -> Json.Arr l) (list_size (0 -- 4) (self (n / 2))) );
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (0 -- 4) (pair str (self (n / 2)))) );
             ])

let test_json_print_roundtrip =
  qtest "to_string parses back to the same value" ~count:500
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v -> Json.parse (Json.to_string v) = v)

let test_json_non_finite () =
  Alcotest.(check string) "null" "[null, null, null]"
    (Json.to_string (Json.Arr [ Num nan; Num infinity; Num neg_infinity ]))

let test_json_integral () =
  List.iter
    (fun (x, s) -> Alcotest.(check string) s s (Json.to_string (Json.Num x)))
    [
      (3.0, "3");
      (-42.0, "-42");
      (1e15, "1000000000000000");
      (0.5, "0.5");
      (0.1, "0.1");
    ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          test_histogram_matches_distribution;
          Alcotest.test_case "exact extremes" `Quick test_histogram_exact_extremes;
          Alcotest.test_case "zero bucket" `Quick test_histogram_zero_bucket;
          Alcotest.test_case "empty" `Quick test_histogram_empty;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring overwrites oldest" `Quick
            test_trace_ring_overwrites;
          Alcotest.test_case "chrome JSON round-trip" `Quick test_trace_roundtrip;
          test_trace_roundtrip_after_wrap;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "JSON export" `Quick test_metrics_json_export;
          Alcotest.test_case "flight recorder JSONL" `Quick
            test_flight_jsonl_roundtrip;
          Alcotest.test_case "same name, same instrument" `Quick
            test_metrics_same_instrument;
        ] );
      ( "sink",
        [
          Alcotest.test_case "null sink records nothing" `Quick
            test_null_sink_is_noop;
          Alcotest.test_case "enabled sink records" `Quick
            test_enabled_sink_records;
          Alcotest.test_case "flow phases round-trip" `Quick
            test_flow_phases_roundtrip;
          test_merge_order_equivalence;
          Alcotest.test_case "cross-domain claim asserts" `Quick
            test_cross_domain_claim_asserts;
        ] );
      ( "json",
        [
          test_json_print_roundtrip;
          Alcotest.test_case "non-finite prints null" `Quick
            test_json_non_finite;
          Alcotest.test_case "integral floats print no fraction" `Quick
            test_json_integral;
        ] );
      ( "engine",
        [
          Alcotest.test_case "pending is a live count" `Quick
            test_engine_pending_live_count;
          Alcotest.test_case "engine probes" `Quick test_engine_obs_probes;
        ] );
    ]
