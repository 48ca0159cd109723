(* an2bench: the repository benchmark. See README.md in this directory.

   Every (workload, rep) runs in a fresh child process ([--child]), one
   at a time; the parent only spawns, collects and aggregates. Modes:

     an2bench [--seed N] [--reps R] [--quick] [--out FILE]
         every workload, reps round-robin, then one traced rep each;
         prints the metric table and writes the JSON envelope.
     an2bench --workload W --seed N --seconds S --trace 0|1
         one workload for S seconds; the last stdout line is a JSON
         summary (end-to-end metrics, or per-layer ones with --trace 1).
     an2bench compare PARENT.json CHANGE.json
         per workload and metric: both sides' medians and quartiles and
         a verdict. *)

module W = Workloads
module J = Obs.Json

(* ---- metric catalogue ---------------------------------------------- *)

type better = Higher | Lower

(* End-to-end metrics every workload reports. Host metrics are noisy
   and carry a relative regression bound; [ok_frac] is simulated and
   must repeat exactly on one seed (its bound in BENCHMARK.json covers
   the spread across seeds). *)
type e2e = { e_name : string; e_unit : string; better : better; bound : float; is_host : bool }

let e2e =
  [
    { e_name = "sim_rate"; e_unit = "sim_s/s"; better = Higher; bound = 0.25; is_host = true };
    { e_name = "setup_s"; e_unit = "s"; better = Lower; bound = 0.25; is_host = true };
    { e_name = "heap_peak_mb"; e_unit = "MB"; better = Lower; bound = 0.15; is_host = true };
    { e_name = "alloc_words_per_op"; e_unit = "words/op"; better = Lower; bound = 0.08; is_host = true };
    { e_name = "ok_frac"; e_unit = "frac"; better = Higher; bound = 0.0; is_host = false };
  ]

(* Per-layer metrics, reported by the traced rep; 0 where the workload
   does not exercise the layer. *)
let per_layer =
  [
    ("fabric.step.ns_per_call", "ns");
    ("fabric.step.words_per_call", "words");
    ("fabric.inject.self_ms", "ms");
    ("fabric.harness.self_ms", "ms");
    ("fabric.cell_p99_us", "us");
    ("matching.iterations_mean", "count");
    ("matching.size_mean", "count");
    ("fabric.voq_occupancy_max", "cells");
    ("netsim.events", "count");
    ("netsim.ns_per_event", "ns");
    ("netsim.words_per_event", "words");
    ("netsim.queue_depth_max", "count");
    ("netsim.cluster.windows", "count");
    ("netsim.cluster.busy_frac", "frac");
    ("netsim.cluster.barrier_wait_frac", "frac");
    ("netsim.cluster.mailbox_msgs", "count");
    ("netsim.snapshot.write_ms", "ms");
    ("netsim.snapshot.bytes", "bytes");
    ("netsim.snapshot.read_ms", "ms");
    ("topo.build_ms", "ms");
    ("topo.route.ns_per_call", "ns");
    ("an2.workload.expand_ms", "ms");
    ("an2.lifecycle.setup.self_ms", "ms");
    ("an2.admission.submit.self_ms", "ms");
    ("an2.admission.release.self_ms", "ms");
    ("an2.network.teardown.self_ms", "ms");
    ("an2.continuations.self_ms", "ms");
    ("an2.route_cache.hit_ratio", "frac");
    ("an2.lifecycle.attempts_per_setup", "count");
    ("an2.lifecycle.setup_p50_us", "us");
    ("an2.lifecycle.setup_p99_us", "us");
    ("an2.admission.cross_shard_frac", "frac");
    ("an2.admission.escrow_conflicts", "count");
    ("an2.admission.request.ns_per_call", "ns");
    ("an2.netrun.self_ms", "ms");
    ("an2.netrun.cells_delivered", "count");
    ("an2.netrun.dark_circuits", "count");
    ("an2.netrun.cell_p99_us", "us");
    ("reconfig.run.self_ms", "ms");
    ("reconfig.messages", "count");
    ("reconfig.wire_transmissions", "count");
    ("reconfig.ns_per_message", "ns");
    ("reconfig.rounds", "count");
    ("reconfig.repair_ms", "ms");
    ("faults.soak.self_ms", "ms");
    ("faults.audit_ms_per_probe", "ms");
    ("faults.soak.audits", "count");
    ("obs.overhead_frac", "frac");
    ("bench.attributed_frac", "frac");
  ]

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("an2bench: " ^ s); exit 2) fmt
let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"
let str s = "\"" ^ Obs.Metrics.json_escape s ^ "\""
let obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"
let arr items = "[" ^ String.concat ", " items ^ "]"

(* ---- child: one rep in this process -------------------------------- *)

(* Layer metrics every workload shares: the topology build, the event
   engine behind the workload's engine span, admission counters, and
   how much of the rep's wall time single-layer spans explain. *)
let common_layer (o : W.outcome) h ~wall_ns =
  let events =
    let e = W.get h.W.counters "engine.events.dispatched" in
    if e > 0.0 then e else W.sum_matching h.W.counters ~prefix:"parprof.p" ~suffix:".dispatched"
  in
  let engine field = match Span.stat o.engine_span with Some s -> float_of_int (field s) | None -> 0.0 in
  let hits = W.get h.counters "lifecycle.route_cache_hits" in
  [
    ("topo.build_ms", float_of_int (Span.total_ns "topo.build") /. 1e6);
    ("netsim.events", events);
    ("netsim.ns_per_event", W.ratio (engine (fun s -> s.total_ns)) events);
    ("netsim.words_per_event", W.ratio (engine (fun s -> s.total_words)) events);
    ("netsim.queue_depth_max", W.get h.gauges_max "engine.queue.depth");
    ("an2.route_cache.hit_ratio", W.ratio hits (hits +. W.get h.counters "lifecycle.route_cache_misses"));
    ( "an2.lifecycle.attempts_per_setup",
      W.ratio (W.get h.counters "lifecycle.attempts")
        (W.get h.counters "lifecycle.established" +. W.get h.counters "lifecycle.failed") );
    ("an2.admission.cross_shard_frac", W.ratio (W.get h.counters "bwc.cross_shard") (W.get h.counters "bwc.requests"));
    ("an2.admission.escrow_conflicts", W.get h.counters "bwc.escrow_conflicts");
    ("bench.attributed_frac", W.ratio (float_of_int (Span.attributed_ns ())) wall_ns);
  ]

let child ~workload ~seed ~quick ~trace ~out_dir =
  let w = match W.find workload with Some w -> w | None -> fail "unknown workload %s" workload in
  let obs = if trace then Some (Obs.Sink.create ~trace_capacity:4096 ()) else None in
  Span.enabled := trace;
  let o = w.run { W.seed; quick; obs; out_dir } in
  let layer =
    if not trace then []
    else begin
      Span.write_chrome (Filename.concat out_dir ("trace-" ^ workload ^ ".json"));
      o.layer @ common_layer o (W.harvest obs) ~wall_ns:((!W.setup_s +. !W.timed_s) *. 1e9)
    end
  in
  let heap_mb = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1048576.0 in
  print_endline
    (obj
       [
         ("setup_s", num !W.setup_s);
         ("timed_s", num !W.timed_s);
         ("sim_s", num o.sim_s);
         ("alloc_words_per_op", num (!W.alloc_words /. o.ops));
         ("heap_peak_mb", num heap_mb);
         ("ok_frac", num o.ok_frac);
         ("digest", str o.digest);
         ("checks", obj (List.map (fun (k, b) -> (k, string_of_bool b)) o.checks));
         ( "sims",
           arr
             (List.map
                (fun (s : W.sim) ->
                  obj [ ("name", str s.name); ("unit", str s.unit); ("value", num s.value); ("count", string_of_int s.count) ])
                o.sims) );
         ("layer", obj (List.map (fun (k, v) -> (k, num v)) layer));
       ])

(* ---- parent: spawn reps and collect them ---------------------------- *)

type rep = {
  host : (string * float) list;  (** sim_rate, setup_s, heap_peak_mb, alloc_words_per_op *)
  ok_frac : float;
  timed_s : float;
  digest : string;
  checks : (string * bool) list;
  sims : W.sim list;
  layer : (string * float) list;
}

let child_timeout_s = 150.0

(* Run [exe --child ...] to completion and parse its last stdout line.
   A child that outlives the timeout is killed; either way it is reaped
   before this returns. *)
let spawn ~workload ~seed ~quick ~trace ~out_dir =
  let exe = Sys.executable_name in
  let args =
    [ exe; "--child"; workload; "--seed"; string_of_int seed; "--out-dir"; out_dir ]
    @ (if quick then [ "--quick" ] else [])
    @ (if trace then [ "--trace"; "1" ] else [])
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Unix.gettimeofday () in
  let pid =
    Unix.create_process exe (Array.of_list (args @ [ "--t0"; Printf.sprintf "%.6f" t0 ])) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let rec read () =
    let left = t0 +. child_timeout_s -. Unix.gettimeofday () in
    if left <= 0.0 then false
    else
      match Unix.select [ r ] [] [] left with
      | [], _, _ -> false
      | _ -> (
        match Unix.read r chunk 0 4096 with
        | 0 -> true
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          read ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ()
  in
  let finished = read () in
  if not finished then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  Unix.close r;
  let _, status = Unix.waitpid [] pid in
  match (finished, status) with
  | true, Unix.WEXITED 0 -> (
    let lines = String.split_on_char '\n' (String.trim (Buffer.contents buf)) in
    try
      let j = J.parse (List.nth lines (List.length lines - 1)) in
      let f k = J.num (J.member k j) in
      let pairs k conv = List.map (fun (k, v) -> (k, conv v)) (J.obj (J.member k j)) in
      Ok
        {
          host =
            [
              ("sim_rate", f "sim_s" /. f "timed_s");
              ("setup_s", f "setup_s");
              ("heap_peak_mb", f "heap_peak_mb");
              ("alloc_words_per_op", f "alloc_words_per_op");
            ];
          ok_frac = f "ok_frac";
          timed_s = f "timed_s";
          digest = J.str (J.member "digest" j);
          checks = pairs "checks" (function J.Bool b -> b | _ -> false);
          sims =
            List.map
              (fun s ->
                {
                  W.name = J.str (J.member "name" s);
                  unit = J.str (J.member "unit" s);
                  value = J.num (J.member "value" s);
                  count = int_of_float (J.num (J.member "count" s));
                })
              (J.arr (J.member "sims" j));
          layer = pairs "layer" J.num;
        }
    with J.Bad e | Failure e -> Error ("unreadable child output: " ^ e))
  | false, _ -> Error (Printf.sprintf "killed after %.0f s" child_timeout_s)
  | true, Unix.WEXITED c -> Error (Printf.sprintf "exit code %d" c)
  | true, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Error (Printf.sprintf "signal %d" s)

(* Everything one workload's reps add up to. *)
type summary = {
  reps : rep list;  (** untraced, in run order *)
  traced : rep option;
  failures : string list;  (** checks that did not hold, crashed reps *)
  attempted : int;
  failed : int;
}

let summarise ~reps ~traced ~errors =
  let failures = ref errors in
  let note fmt = Printf.ksprintf (fun s -> failures := !failures @ [ s ]) fmt in
  let all = reps @ Option.to_list traced in
  let bad = List.filter (fun r -> List.exists (fun (_, b) -> not b) r.checks) all in
  List.iter
    (fun r -> List.iter (fun (k, b) -> if not b then note "check failed: %s" k) r.checks)
    bad;
  (match reps with
   | first :: rest ->
     if List.exists (fun r -> r.digest <> first.digest) rest then note "sim_digest differs across reps";
     if List.exists (fun r -> r.sims <> first.sims || r.ok_frac <> first.ok_frac) rest then
       note "simulated metrics differ across reps";
     Option.iter
       (fun t -> if t.digest <> first.digest then note "traced outcome differs from untraced")
       traced
   | [] -> note "no rep completed");
  {
    reps;
    traced;
    failures = List.sort_uniq compare !failures;
    attempted = List.length all + List.length errors;
    failed = List.length bad + List.length errors;
  }

(* Per-layer metrics of the traced rep, padded to the full catalogue,
   with the tracing overhead against the untraced median. *)
let ledger s =
  match s.traced with
  | None -> []
  | Some t ->
    let base = Stats.median (List.map (fun r -> r.timed_s) s.reps) in
    let overhead = if base > 0.0 then (t.timed_s /. base) -. 1.0 else 0.0 in
    List.map
      (fun (name, unit) ->
        let v = if name = "obs.overhead_frac" then overhead else W.get t.layer name in
        (name, unit, v))
      per_layer

let host_samples s name = List.map (fun r -> List.assoc name r.host) s.reps

let e2e_value s (m : e2e) =
  if m.is_host then Stats.median (host_samples s m.e_name)
  else match s.reps with r :: _ -> r.ok_frac | [] -> 0.0

(* ---- fixed-time mode: one workload for a fixed time ----------------- *)

let fixed_time ~workload ~seed ~seconds ~trace ~out_dir =
  let start = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. start in
  (* A traced run spends half its time on untraced reps, the baseline
     for the tracing overhead. *)
  let budget = if trace then seconds /. 2.0 else seconds in
  let min_reps = if trace then 2 else 3 in
  let reps = ref [] and errors = ref [] in
  let record = function
    | Ok r -> reps := !reps @ [ r ]
    | Error e -> errors := !errors @ [ e ]
  in
  while
    (elapsed () < budget || List.length !reps + List.length !errors < min_reps)
    && elapsed () < 100.0 && List.length !errors < 2
  do
    record (spawn ~workload ~seed ~quick:false ~trace:false ~out_dir)
  done;
  let traced =
    if not trace then None
    else
      match spawn ~workload ~seed ~quick:false ~trace:true ~out_dir with
      | Ok r -> Some r
      | Error e ->
        errors := !errors @ [ "traced rep: " ^ e ];
        None
  in
  let s = summarise ~reps:!reps ~traced ~errors:!errors in
  List.iter (fun f -> Printf.eprintf "an2bench: %s: %s\n" workload f) s.failures;
  let metrics =
    if trace then List.map (fun (name, unit, v) -> (name, v, unit)) (ledger s)
    else List.map (fun m -> (m.e_name, e2e_value s m, m.e_unit)) e2e
  in
  List.iter (fun (name, v, unit) -> Printf.printf "%-36s %14.6g %s\n" name v unit) metrics;
  let correct = s.failures = [] in
  print_endline
    (obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int s.attempted);
         ("failed", string_of_int s.failed);
         ("metrics", obj (List.map (fun (name, v, unit) -> (name, obj [ ("value", num v); ("unit", str unit) ])) metrics));
       ]);
  exit (if correct then 0 else 1)

(* ---- full mode: every workload, round-robin reps, JSON envelope ---- *)

let command_line prog args =
  match Unix.open_process_args_in prog (Array.of_list (prog :: args)) with
  | exception Unix.Unix_error _ -> None
  | ic ->
    let out = try Some (String.trim (input_line ic)) with End_of_file -> None in
    (match Unix.close_process_in ic with Unix.WEXITED 0 -> out | _ -> None)

let envelope_workload (w : W.workload) s =
  let host_metric (m : e2e) =
    let xs = host_samples s m.e_name in
    let q1, med, q3 = Stats.quartiles xs in
    ( m.e_name,
      obj
        [
          ("unit", str m.e_unit);
          ("kind", str "host");
          ("better", str (if m.better = Higher then "higher" else "lower"));
          ("bound", num m.bound);
          ("median", num med);
          ("q1", num q1);
          ("q3", num q3);
          ("n", string_of_int (List.length xs));
          ("samples", arr (List.map num xs));
          ("unresolved", string_of_bool (Stats.rel_iqr xs > m.bound));
        ] )
  in
  let sim_metric name unit better value count =
    ( name,
      obj
        [
          ("unit", str unit);
          ("kind", str "sim");
          ("better", str better);
          ("value", num value);
          ("count", string_of_int count);
        ] )
  in
  let first = match s.reps with r :: _ -> Some r | [] -> None in
  let sims =
    match first with
    | None -> []
    | Some r ->
      sim_metric "ok_frac" "frac" "higher" r.ok_frac 0
      :: List.map (fun (x : W.sim) -> sim_metric x.name x.unit "lower" x.value x.count) r.sims
  in
  ( w.w_name,
    obj
      [
        ("why", str w.why);
        ("correct", string_of_bool (s.failures = []));
        ("failures", arr (List.map str s.failures));
        ("sim_digest", str (match first with Some r -> r.digest | None -> ""));
        ("metrics", obj (List.map host_metric (List.filter (fun m -> m.is_host) e2e) @ sims));
        ("ledger", obj (List.map (fun (name, unit, v) -> (name, obj [ ("value", num v); ("unit", str unit) ])) (ledger s)));
        ("trace", str ("trace-" ^ w.w_name ^ ".json"));
      ] )

let print_table results =
  Printf.printf "\n%-20s %-18s %14s %14s %14s %5s\n" "workload" "metric" "median" "q1" "q3" "n";
  List.iter
    (fun ((w : W.workload), s) ->
      List.iter
        (fun (m : e2e) ->
          if m.is_host then begin
            let xs = host_samples s m.e_name in
            let q1, med, q3 = Stats.quartiles xs in
            Printf.printf "%-20s %-18s %14.6g %14.6g %14.6g %5d %s%s\n" w.w_name m.e_name med q1 q3 (List.length xs)
              m.e_unit
              (if Stats.rel_iqr xs > m.bound then "  UNRESOLVED (spread > bound)" else "")
          end)
        e2e;
      match s.reps with
      | r :: _ ->
        Printf.printf "%-20s %-18s %14.6g %44s frac (simulated)\n" w.w_name "ok_frac" r.ok_frac "";
        List.iter
          (fun (x : W.sim) ->
            Printf.printf "%-20s %-18s %14.6g %44s %s (simulated%s)\n" w.w_name x.name x.value "" x.unit
              (if x.count > 0 then Printf.sprintf ", %d samples" x.count else ""))
          r.sims;
        Printf.printf "%-20s %-18s %s\n" w.w_name "sim_digest" r.digest
      | [] -> ())
    results

let full ~seed ~reps ~quick ~out ~out_dir =
  let acc = List.map (fun (w : W.workload) -> (w, (ref [], ref []))) W.all in
  for i = 1 to reps do
    List.iter
      (fun ((w : W.workload), (ok, errs)) ->
        Printf.eprintf "an2bench: rep %d/%d %s\n%!" i reps w.w_name;
        match spawn ~workload:w.w_name ~seed ~quick ~trace:false ~out_dir with
        | Ok r -> ok := !ok @ [ r ]
        | Error e -> errs := !errs @ [ e ])
      acc
  done;
  let results =
    List.map
      (fun ((w : W.workload), (ok, errs)) ->
        Printf.eprintf "an2bench: traced %s\n%!" w.w_name;
        let traced, errs =
          match spawn ~workload:w.w_name ~seed ~quick ~trace:true ~out_dir with
          | Ok r -> (Some r, !errs)
          | Error e -> (None, !errs @ [ "traced rep: " ^ e ])
        in
        (w, summarise ~reps:!ok ~traced ~errors:errs))
      acc
  in
  print_table results;
  let nproc = match command_line "nproc" [] with Some n -> n | None -> "unknown" in
  let commit = Option.value ~default:"unknown" (command_line "git" [ "rev-parse"; "HEAD" ]) in
  let oc = open_out out in
  output_string oc
    (obj
       [
         ("schema", str "an2bench/1");
         ("commit", str commit);
         ("nproc", (match int_of_string_opt nproc with Some n -> string_of_int n | None -> str nproc));
         ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
         ("ocaml", str Sys.ocaml_version);
         ("seed", string_of_int seed);
         ("reps", string_of_int reps);
         ("quick", string_of_bool quick);
         ("workloads", obj (List.map (fun (w, s) -> envelope_workload w s) results));
       ]);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s; traces in %s\n" out out_dir;
  List.concat_map (fun ((w : W.workload), s) -> List.map (fun f -> w.w_name ^ ": " ^ f) s.failures) results

(* Every workload, end-to-end metric and per-layer metric that
   BENCHMARK.json names must appear in the envelope. *)
let missing_names ~benchmark ~envelope =
  let b = Compare.load benchmark and e = Compare.load envelope in
  let names k = List.map (fun m -> J.str (J.member "name" m)) (J.arr (J.member k b)) in
  List.concat_map
    (fun w ->
      match J.member_opt w (J.member "workloads" e) with
      | None -> [ "workload " ^ w ]
      | Some wj ->
        let absent section m = if J.member_opt m (J.member section wj) = None then [ w ^ ": " ^ m ] else [] in
        List.concat_map (absent "metrics") (names "end_to_end") @ List.concat_map (absent "ledger") (names "per_layer"))
    (names "workloads")

(* ---- command line ---------------------------------------------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "compare"; parent; change ] -> exit (if Compare.run parent change then 0 else 1)
  | "compare" :: _ -> fail "usage: an2bench compare PARENT.json CHANGE.json"
  | _ ->
    let seed = ref 1 and reps = ref 5 and quick = ref false and trace = ref false in
    let out = ref None and out_dir = ref (Filename.concat "bench" (Filename.concat "an2bench" "out")) in
    let workload = ref None and child_of = ref None and seconds = ref None and check = ref None in
    let int_arg flag v = match int_of_string_opt v with Some n -> n | None -> fail "%s expects an integer, got %s" flag v in
    let rec parse = function
      | [] -> ()
      | "--seed" :: v :: rest -> seed := int_arg "--seed" v; parse rest
      | "--reps" :: v :: rest ->
        reps := int_arg "--reps" v;
        if !reps < 1 then fail "--reps must be at least 1";
        parse rest
      | "--quick" :: rest -> quick := true; parse rest
      | "--trace" :: "0" :: rest -> trace := false; parse rest
      | "--trace" :: "1" :: rest -> trace := true; parse rest
      | "--out" :: v :: rest -> out := Some v; parse rest
      | "--out-dir" :: v :: rest -> out_dir := v; parse rest
      | "--workload" :: v :: rest -> workload := Some v; parse rest
      | "--check-names" :: v :: rest -> check := Some v; parse rest
      | "--seconds" :: v :: rest ->
        seconds := Some (float_of_int (int_arg "--seconds" v));
        parse rest
      | "--child" :: v :: rest -> child_of := Some v; parse rest
      | "--t0" :: v :: rest ->
        (match float_of_string_opt v with Some t -> W.t0 := t | None -> fail "--t0 expects a number");
        parse rest
      | a :: _ -> fail "unknown argument %s (see bench/an2bench/README.md)" a
    in
    parse args;
    (try if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755
     with Sys_error e -> fail "cannot create the output directory: %s" e);
    match (!child_of, !workload) with
    | Some w, _ -> child ~workload:w ~seed:!seed ~quick:!quick ~trace:!trace ~out_dir:!out_dir
    | None, Some w ->
      if W.find w = None then fail "unknown workload %s" w;
      fixed_time ~workload:w ~seed:!seed ~seconds:(Option.value !seconds ~default:10.0) ~trace:!trace ~out_dir:!out_dir
    | None, None ->
      let out = Option.value !out ~default:(Filename.concat !out_dir "run.json") in
      let failures = full ~seed:!seed ~reps:!reps ~quick:!quick ~out ~out_dir:!out_dir in
      let missing =
        match !check with
        | None -> []
        | Some benchmark -> List.map (( ^ ) "not in the output: ") (missing_names ~benchmark ~envelope:out)
      in
      List.iter (fun f -> Printf.eprintf "an2bench: FAILED %s\n" f) (failures @ missing);
      exit (if failures = [] && missing = [] then 0 else 1)
