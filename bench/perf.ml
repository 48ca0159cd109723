(* Perf-trajectory harness.

   Times the matching kernels (including the retained list-based
   reference, so the bitset speedup is measured, not asserted) and a
   recirculating full-backlog VOQ macro-benchmark, then writes the
   numbers as JSON. Checking the JSON in at each optimization commit
   leaves a machine-readable perf trail next to the code.

   Usage: dune exec bench/perf.exe [-- --smoke] [-- --out FILE] *)

let n = 16
let density = 0.75

type sample = { name : string; ops : int; ns_per_op : float; words_per_op : float }

let measure ~name ~ops f =
  for _ = 1 to min ops 1000 do
    f ()
  done;
  (* warmup *)
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to ops do
    f ()
  done;
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  {
    name;
    ops;
    ns_per_op = (t1 -. t0) *. 1e9 /. float_of_int ops;
    words_per_op = (w1 -. w0) /. float_of_int ops;
  }

let kernels ~ops =
  let make_req seed =
    let rng = Netsim.Rng.create seed in
    let req = Matching.Request.random ~rng ~n ~density in
    (rng, req)
  in
  let pim_bitset =
    let rng, req = make_req 1 in
    let st = Matching.Pim.create n in
    let m = Matching.Outcome.empty n in
    measure ~name:"pim3-16x16" ~ops (fun () ->
        Matching.Pim.run_into st ~rng req ~iterations:3 m)
  in
  let pim_reference =
    let rng, req = make_req 1 in
    measure ~name:"pim3-16x16-reference" ~ops (fun () ->
        ignore (Oracle.Matching_reference.Pim.run ~rng req ~iterations:3))
  in
  let islip =
    let _, req = make_req 2 in
    let st = Matching.Islip.create n in
    let m = Matching.Outcome.empty n in
    measure ~name:"islip3-16x16" ~ops (fun () ->
        Matching.Islip.run_into st req ~iterations:3 m)
  in
  let greedy =
    let rng, req = make_req 3 in
    let rng_opt = Some rng in
    let st = Matching.Greedy.create n in
    let m = Matching.Outcome.empty n in
    measure ~name:"greedy-16x16" ~ops (fun () ->
        Matching.Greedy.run_into st ?rng:rng_opt req m)
  in
  let hk =
    let _, req = make_req 4 in
    let st = Matching.Hopcroft_karp.create n in
    let m = Matching.Outcome.empty n in
    measure ~name:"hopcroft-karp-16x16" ~ops (fun () ->
        Matching.Hopcroft_karp.run_into st req m)
  in
  let rng_int =
    let rng = Netsim.Rng.create 5 in
    measure ~name:"rng-int" ~ops:(ops * 50) (fun () ->
        ignore (Netsim.Rng.int rng 16))
  in
  [ pim_bitset; pim_reference; islip; greedy; hk; rng_int ]

(* Full-backlog VOQ switch under PIM3: every transferred cell is
   re-injected, so all N^2 virtual output queues stay occupied and
   every slot schedules a full request matrix. [step_count] keeps the
   measured loop allocation-free. *)
type macro = {
  slots : int;
  cells : int;
  ns_per_slot : float;
  cells_per_sec : float;
  minor_words_per_slot : float;
}

let macro_bench ?(obs = Obs.Sink.null) ~slots () =
  let rng = Netsim.Rng.create 42 in
  let inject_ref = ref (fun (_ : Fabric.Cell.t) -> ()) in
  let model =
    Fabric.Voq_switch.create_observed ~obs ~rng ~n ~scheduler:(Pim 3)
      ~on_transfer:(fun cell ~slot:_ -> !inject_ref cell)
  in
  inject_ref := model.Fabric.Model.inject;
  for i = 0 to n - 1 do
    for o = 0 to n - 1 do
      model.Fabric.Model.inject (Fabric.Cell.make ~input:i ~output:o ~arrival:0)
    done
  done;
  let warmup = 1000 in
  for slot = 0 to warmup - 1 do
    ignore (model.Fabric.Model.step_count ~slot)
  done;
  let cells = ref 0 in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for slot = warmup to warmup + slots - 1 do
    cells := !cells + model.Fabric.Model.step_count ~slot
  done;
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  let elapsed = t1 -. t0 in
  {
    slots;
    cells = !cells;
    ns_per_slot = elapsed *. 1e9 /. float_of_int slots;
    cells_per_sec = float_of_int !cells /. elapsed;
    minor_words_per_slot = (w1 -. w0) /. float_of_int slots;
  }

(* Observability overhead: the same full-backlog run with the sink
   disabled (the shipped default — must stay allocation-free) and with
   an enabled sink collecting counters, gauges, histograms and trace
   events every slot. *)
type obs_cost = {
  off : macro;
  on_ : macro;
  overhead_pct : float;
  on_words_per_slot : float;
}

let obs_bench ~slots =
  let off = macro_bench ~slots () in
  let on_ =
    macro_bench ~obs:(Obs.Sink.create ~trace_capacity:4096 ()) ~slots ()
  in
  {
    off;
    on_;
    overhead_pct = 100.0 *. (on_.ns_per_slot /. off.ns_per_slot -. 1.0);
    on_words_per_slot = on_.minor_words_per_slot;
  }

(* ------------------------------------------------------------------ *)

let write_json ~file ~smoke ~samples ~speedup ~(m : macro) ~(o : obs_cost) =
  let oc = open_out file in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"an2-perf-v1\",\n";
  p "  \"smoke\": %b,\n" smoke;
  p "  \"config\": { \"n\": %d, \"density\": %.2f, \"pim_iterations\": 3 },\n" n
    density;
  p "  \"kernels\": [\n";
  List.iteri
    (fun k s ->
      p "    { \"name\": \"%s\", \"ops\": %d, \"ns_per_op\": %.1f, \"minor_words_per_op\": %.1f }%s\n"
        (Obs.Metrics.json_escape s.name) s.ops s.ns_per_op s.words_per_op
        (if k = List.length samples - 1 then "" else ","))
    samples;
  p "  ],\n";
  p "  \"derived\": { \"pim3_bitset_speedup_vs_reference\": %.2f },\n" speedup;
  p "  \"macro\": {\n";
  p "    \"model\": \"voq-pim3-16x16-full-backlog\",\n";
  p "    \"slots\": %d,\n" m.slots;
  p "    \"cells\": %d,\n" m.cells;
  p "    \"ns_per_slot\": %.1f,\n" m.ns_per_slot;
  p "    \"cells_per_sec\": %.0f,\n" m.cells_per_sec;
  p "    \"minor_words_per_slot\": %.2f\n" m.minor_words_per_slot;
  p "  },\n";
  p "  \"obs\": {\n";
  p "    \"off_ns_per_slot\": %.1f,\n" o.off.ns_per_slot;
  p "    \"off_minor_words_per_slot\": %.2f,\n" o.off.minor_words_per_slot;
  p "    \"on_ns_per_slot\": %.1f,\n" o.on_.ns_per_slot;
  p "    \"on_minor_words_per_slot\": %.2f,\n" o.on_words_per_slot;
  p "    \"overhead_pct\": %.1f\n" o.overhead_pct;
  p "  }\n";
  p "}\n";
  close_out oc

let () =
  let smoke = ref false and out = ref "BENCH_fabric.json" in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "--out" :: file :: rest ->
      out := file;
      parse rest
    | [ "--out" ] ->
      prerr_endline "perf: --out requires a value";
      exit 2
    | arg :: _ ->
      Printf.eprintf "perf: unknown argument %s (usage: perf [--smoke] [--out FILE])\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let ops = if !smoke then 2_000 else 100_000 in
  let slots = if !smoke then 2_000 else 100_000 in
  let samples = kernels ~ops in
  let m = macro_bench ~slots () in
  let o = obs_bench ~slots in
  let find name = List.find (fun s -> s.name = name) samples in
  let speedup =
    (find "pim3-16x16-reference").ns_per_op /. (find "pim3-16x16").ns_per_op
  in
  Printf.printf "kernels (%d ops each):\n" ops;
  List.iter
    (fun s ->
      Printf.printf "  %-24s %10.1f ns/op %10.1f words/op\n" s.name s.ns_per_op
        s.words_per_op)
    samples;
  Printf.printf "pim3 bitset speedup vs reference: %.2fx\n" speedup;
  Printf.printf
    "macro voq+pim3 16x16 full backlog: %d slots, %.1f ns/slot, %.2f Mcells/s, %.2f minor words/slot\n"
    m.slots m.ns_per_slot (m.cells_per_sec /. 1e6) m.minor_words_per_slot;
  Printf.printf
    "observability: off %.1f ns/slot (%.2f words), on %.1f ns/slot (%.2f words), overhead %.1f%%\n"
    o.off.ns_per_slot o.off.minor_words_per_slot o.on_.ns_per_slot
    o.on_words_per_slot o.overhead_pct;
  write_json ~file:!out ~smoke:!smoke ~samples ~speedup ~m ~o;
  Printf.printf "wrote %s\n" !out
