(* Perf-trajectory harness.

   Times the matching kernels (including the retained list-based
   reference, so the bitset speedup is measured, not asserted), the
   Slepian-Duguid insert, an SRC-LAN reconfiguration and the credit
   round trip, and a recirculating full-backlog VOQ macro-benchmark,
   then writes the numbers as JSON. Checking the JSON in at each
   optimization commit leaves a machine-readable perf trail next to
   the code.

   Usage: dune exec bench/perf.exe [-- --smoke] [-- --out FILE] *)

let n = 16
let density = 0.75
let measure ~name ~ops f = (name, Util.measure ~ops f)

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
  let sd_insert =
    let rng = Netsim.Rng.create 4 in
    let frame = 1024 in
    let s = Frame.Schedule.create ~n ~frame in
    (* Pre-fill to 90% so insertions exercise the swap chain. *)
    let r = Frame.Reservation.random_admissible ~rng ~n ~frame ~fill:0.9 in
    for i = 0 to n - 1 do
      for o = 0 to n - 1 do
        ignore
          (Frame.Schedule.add_reservation s ~input:i ~output:o
             ~cells:(Frame.Reservation.get r i o))
      done
    done;
    (* Insert and remove one cell between a lightly loaded pair. *)
    measure ~name:"slepian-duguid-insert" ~ops (fun () ->
        match Frame.Schedule.add_cell s ~input:0 ~output:0 with
        | Ok _ -> ignore (Frame.Schedule.remove_cell s ~input:0 ~output:0)
        | Error _ -> ())
  in
  (* A whole reconfiguration costs about 100 us, so it runs 1/100 as
     often as the kernels above. *)
  let reconfig =
    measure ~name:"reconfig-src-lan" ~ops:(max 1 (ops / 100)) (fun () ->
        let g = Topo.Build.src_lan () in
        ignore (Reconfig.Runner.run g ~triggers:[ (0, 0) ]))
  in
  let credit =
    let up = Flow.Credit.Upstream.create ~total:64 in
    let ds = Flow.Credit.Downstream.create ~capacity:64 ~cumulative:false in
    measure ~name:"credit-roundtrip" ~ops (fun () ->
        Flow.Credit.Upstream.on_send up;
        Flow.Credit.Downstream.on_arrival ds;
        Flow.Credit.Upstream.on_credit up
          (Flow.Credit.Downstream.on_forward ds))
  in
  [
    pim_bitset;
    pim_reference;
    islip;
    greedy;
    hk;
    rng_int;
    sd_insert;
    reconfig;
    credit;
  ]

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
  let words, elapsed =
    Util.time (fun () ->
        let w0 = Gc.minor_words () in
        for slot = warmup to warmup + slots - 1 do
          cells := !cells + model.Fabric.Model.step_count ~slot
        done;
        Gc.minor_words () -. w0)
  in
  {
    slots;
    cells = !cells;
    ns_per_slot = elapsed *. 1e9 /. float_of_int slots;
    cells_per_sec = float_of_int !cells /. elapsed;
    minor_words_per_slot = words /. float_of_int slots;
  }

let () =
  let cli = Util.cli ~default_out:"BENCH_fabric.json" in
  let ops = if cli.smoke then 2_000 else 100_000 in
  let slots = if cli.smoke then 2_000 else 100_000 in
  let samples = kernels ~ops in
  let m = macro_bench ~slots () in
  (* Observability overhead: the same full-backlog run with the sink
     disabled (the shipped default — must stay allocation-free) and
     with an enabled sink collecting counters, gauges, histograms and
     trace events every slot. *)
  let off = macro_bench ~slots () in
  let on_ =
    macro_bench ~obs:(Obs.Sink.create ~trace_capacity:4096 ()) ~slots ()
  in
  let overhead_pct = 100.0 *. ((on_.ns_per_slot /. off.ns_per_slot) -. 1.0) in
  let ns name = (List.assoc name samples).Util.ns_per_op in
  let speedup = ns "pim3-16x16-reference" /. ns "pim3-16x16" in
  Printf.printf "kernels (%d ops each):\n" ops;
  List.iter
    (fun (name, (s : Util.sample)) ->
      Printf.printf "  %-24s %10.1f ns/op %10.1f words/op\n" name s.ns_per_op
        s.words_per_op)
    samples;
  Printf.printf "pim3 bitset speedup vs reference: %.2fx\n" speedup;
  Printf.printf
    "macro voq+pim3 16x16 full backlog: %d slots, %.1f ns/slot, %.2f Mcells/s, %.2f minor words/slot\n"
    m.slots m.ns_per_slot (m.cells_per_sec /. 1e6) m.minor_words_per_slot;
  Printf.printf
    "observability: off %.1f ns/slot (%.2f words), on %.1f ns/slot (%.2f words), overhead %.1f%%\n"
    off.ns_per_slot off.minor_words_per_slot on_.ns_per_slot
    on_.minor_words_per_slot overhead_pct;
  let open Obs.Json in
  Util.write_json cli ~schema:"an2-perf-v1"
    [
      ( "config",
        Obj
          [
            ("n", Util.int n);
            ("density", Num density);
            ("pim_iterations", Util.int 3);
          ] );
      ( "kernels",
        Arr
          (List.map
             (fun (name, (s : Util.sample)) ->
               Obj
                 [
                   ("name", Str name);
                   ("ops", Util.int s.ops);
                   ("ns_per_op", Num s.ns_per_op);
                   ("minor_words_per_op", Num s.words_per_op);
                 ])
             samples) );
      ("derived", Obj [ ("pim3_bitset_speedup_vs_reference", Num speedup) ]);
      ( "macro",
        Obj
          [
            ("model", Str "voq-pim3-16x16-full-backlog");
            ("slots", Util.int m.slots);
            ("cells", Util.int m.cells);
            ("ns_per_slot", Num m.ns_per_slot);
            ("cells_per_sec", Num m.cells_per_sec);
            ("minor_words_per_slot", Num m.minor_words_per_slot);
          ] );
      ( "obs",
        Obj
          [
            ("off_ns_per_slot", Num off.ns_per_slot);
            ("off_minor_words_per_slot", Num off.minor_words_per_slot);
            ("on_ns_per_slot", Num on_.ns_per_slot);
            ("on_minor_words_per_slot", Num on_.minor_words_per_slot);
            ("overhead_pct", Num overhead_pct);
          ] );
    ]
