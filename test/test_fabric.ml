(* Tests for the slotted switch simulators: traffic patterns, the three
   buffer organizations, and the measurement harness. *)

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Traffic *)

let count_arrivals traffic ~n ~slots =
  let total = ref 0 in
  for slot = 0 to slots - 1 do
    for input = 0 to n - 1 do
      total := !total + List.length (Fabric.Traffic.arrivals traffic ~slot ~input)
    done
  done;
  !total

let test_uniform_rate () =
  let rng = Netsim.Rng.create 1 in
  let n = 8 and slots = 5000 in
  let t = Fabric.Traffic.uniform ~rng ~n ~load:0.4 in
  let rate = float_of_int (count_arrivals t ~n ~slots) /. float_of_int (n * slots) in
  Alcotest.(check bool) (Printf.sprintf "rate %.3f ~ 0.4" rate) true
    (abs_float (rate -. 0.4) < 0.03)

let test_uniform_destinations_cover () =
  let rng = Netsim.Rng.create 2 in
  let n = 8 in
  let t = Fabric.Traffic.uniform ~rng ~n ~load:1.0 in
  let seen = Array.make n false in
  for slot = 0 to 499 do
    List.iter (fun o -> seen.(o) <- true) (Fabric.Traffic.arrivals t ~slot ~input:0)
  done;
  Alcotest.(check bool) "all outputs seen" true (Array.for_all Fun.id seen)

let test_bursty_rate () =
  let rng = Netsim.Rng.create 3 in
  let n = 4 and slots = 40_000 in
  let t = Fabric.Traffic.bursty ~rng ~n ~load:0.5 ~mean_burst:8.0 in
  let rate = float_of_int (count_arrivals t ~n ~slots) /. float_of_int (n * slots) in
  Alcotest.(check bool) (Printf.sprintf "rate %.3f ~ 0.5" rate) true
    (abs_float (rate -. 0.5) < 0.06)

let test_bursty_correlation () =
  (* Within a burst, consecutive cells share a destination. *)
  let rng = Netsim.Rng.create 4 in
  let n = 8 in
  let t = Fabric.Traffic.bursty ~rng ~n ~load:1.0 ~mean_burst:16.0 in
  let same = ref 0 and total = ref 0 in
  let last = ref (-1) in
  for slot = 0 to 2000 do
    match Fabric.Traffic.arrivals t ~slot ~input:0 with
    | [ o ] ->
      if !last >= 0 then begin
        incr total;
        if o = !last then incr same
      end;
      last := o
    | _ -> last := -1
  done;
  let frac = float_of_int !same /. float_of_int !total in
  Alcotest.(check bool) (Printf.sprintf "correlated %.2f > 0.8" frac) true (frac > 0.8)

let test_hotspot_bias () =
  let rng = Netsim.Rng.create 5 in
  let n = 8 in
  let t = Fabric.Traffic.hotspot ~rng ~n ~load:1.0 ~hot_fraction:0.5 in
  let hot = ref 0 and total = ref 0 in
  for slot = 0 to 5000 do
    List.iter
      (fun o ->
        incr total;
        if o = 0 then incr hot)
      (Fabric.Traffic.arrivals t ~slot ~input:3)
  done;
  let frac = float_of_int !hot /. float_of_int !total in
  (* 0.5 direct + 0.5/8 via the uniform part *)
  Alcotest.(check bool) (Printf.sprintf "hot frac %.2f" frac) true
    (abs_float (frac -. 0.5625) < 0.05)

let test_permutation_dests () =
  let rng = Netsim.Rng.create 6 in
  let n = 8 in
  let t = Fabric.Traffic.permutation ~rng ~n ~load:1.0 in
  for slot = 0 to 100 do
    for input = 0 to n - 1 do
      List.iter
        (fun o -> Alcotest.(check int) "shifted" ((input + 1) mod n) o)
        (Fabric.Traffic.arrivals t ~slot ~input)
    done
  done

let test_fixed_pattern () =
  let t = Fabric.Traffic.fixed [ (0, 1); (0, 2); (3, 2) ] ~n:4 in
  Alcotest.(check (list int)) "input 0" [ 1; 2 ]
    (Fabric.Traffic.arrivals t ~slot:7 ~input:0);
  Alcotest.(check (list int)) "input 3" [ 2 ]
    (Fabric.Traffic.arrivals t ~slot:7 ~input:3);
  Alcotest.(check (list int)) "input 1 idle" []
    (Fabric.Traffic.arrivals t ~slot:7 ~input:1)

(* ------------------------------------------------------------------ *)
(* Switch models: conservation and legality *)

let drive_model model traffic ~slots =
  let n = model.Fabric.Model.n in
  let injected = ref 0 and departed = ref 0 in
  for slot = 0 to slots - 1 do
    for input = 0 to n - 1 do
      List.iter
        (fun output ->
          incr injected;
          model.Fabric.Model.inject (Fabric.Cell.make ~input ~output ~arrival:slot))
        (Fabric.Traffic.arrivals traffic ~slot ~input)
    done;
    let deps = model.Fabric.Model.step ~slot in
    departed := !departed + List.length deps;
    (* Each slot: at most one departure per output and per input. *)
    let outs = List.map (fun (c : Fabric.Cell.t) -> c.output) deps in
    let ins = List.map (fun (c : Fabric.Cell.t) -> c.input) deps in
    if List.length (List.sort_uniq compare outs) <> List.length outs then
      Alcotest.fail "duplicate output in one slot";
    ignore ins
  done;
  (!injected, !departed, model.Fabric.Model.occupancy ())

let model_gen =
  QCheck.make
    ~print:(fun (seed, load) -> Printf.sprintf "seed=%d load=%.2f" seed load)
    QCheck.Gen.(pair (int_range 0 10_000) (float_range 0.05 1.0))

let conservation make =
  fun (seed, load) ->
    let rng = Netsim.Rng.create seed in
    let n = 8 in
    let model = make ~rng ~n in
    let traffic = Fabric.Traffic.uniform ~rng ~n ~load in
    let injected, departed, left = drive_model model traffic ~slots:300 in
    injected = departed + left

let test_fifo_conservation =
  qtest "fifo conserves cells" model_gen
    (conservation (fun ~rng ~n -> Fabric.Fifo_switch.create ~rng ~n))

let test_voq_conservation =
  qtest "voq conserves cells" model_gen
    (conservation (fun ~rng ~n ->
         Fabric.Voq_switch.create ~rng ~n ~scheduler:(Pim 3)))

let test_oq_conservation =
  qtest "output-queued conserves cells" model_gen
    (conservation (fun ~rng ~n -> Fabric.Output_queued.create ~rng ~n ~k:4))

let test_voq_one_departure_per_input_slot () =
  let rng = Netsim.Rng.create 11 in
  let n = 8 in
  let model = Fabric.Voq_switch.create ~rng ~n ~scheduler:(Pim 3) in
  let traffic = Fabric.Traffic.uniform ~rng ~n ~load:1.0 in
  for slot = 0 to 200 do
    for input = 0 to n - 1 do
      List.iter
        (fun output ->
          model.Fabric.Model.inject (Fabric.Cell.make ~input ~output ~arrival:slot))
        (Fabric.Traffic.arrivals traffic ~slot ~input)
    done;
    let deps = model.Fabric.Model.step ~slot in
    let ins = List.map (fun (c : Fabric.Cell.t) -> c.input) deps in
    Alcotest.(check int) "distinct inputs"
      (List.length ins)
      (List.length (List.sort_uniq compare ins))
  done

(* ------------------------------------------------------------------ *)
(* Saturation throughput: the paper's headline numbers *)

let test_fifo_58_percent () =
  (* Karol et al.: head-of-line blocking limits FIFO input queueing to
     2 - sqrt 2 = 58.6% as N grows; at N=16 theory gives ~60%. *)
  let rng = Netsim.Rng.create 21 in
  let thpt =
    Fabric.Harness.saturation_throughput ~rng
      ~make_model:(fun () -> Fabric.Fifo_switch.create ~rng ~n:16)
      ~n:16 ~slots:20_000
  in
  Alcotest.(check bool) (Printf.sprintf "%.3f in [0.55, 0.65]" thpt) true
    (thpt > 0.55 && thpt < 0.65)

(* Karol, Hluchyj and Morgan's exact saturation throughput of FIFO
   input queueing at small N. Their model keeps a cell at every head of
   line and gives a departed head's successor a fresh uniform
   destination, so the driver refills an input only when it sends. The
   tolerance is the run's own standard error, from the means of
   [batches] consecutive batches. *)
let fifo_saturation ~n ~batches ~batch_slots =
  let rng = Netsim.Rng.create (30 + n) in
  let model = Fabric.Fifo_switch.create ~rng ~n in
  let refill ~slot input =
    model.inject (Fabric.Cell.make ~input ~output:(Netsim.Rng.int rng n) ~arrival:slot)
  in
  for input = 0 to n - 1 do refill ~slot:0 input done;
  let slot = ref 0 in
  let batch () =
    let sent = ref 0 in
    for _ = 1 to batch_slots do
      incr slot;
      List.iter
        (fun (c : Fabric.Cell.t) -> incr sent; refill ~slot:!slot c.input)
        (model.step ~slot:!slot)
    done;
    float_of_int !sent /. float_of_int (n * batch_slots)
  in
  ignore (batch () : float);
  let means = Array.init batches (fun _ -> batch ()) in
  let b = float_of_int batches in
  let mean = Array.fold_left ( +. ) 0.0 means /. b in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 means /. (b -. 1.0)
  in
  (mean, sqrt (var /. b))

let test_fifo_karol_exact () =
  List.iter
    (fun (n, exact) ->
      let mean, se = fifo_saturation ~n ~batches:20 ~batch_slots:10_000 in
      let z = (mean -. exact) /. se in
      Alcotest.(check bool)
        (Printf.sprintf "N=%d: %.4f vs %.4f (se %.5f, z %.2f)" n mean exact se z)
        true
        (Float.abs z <= 4.0))
    [ (2, 0.7500); (3, 0.6825); (4, 0.6553); (8, 0.6184) ]

let test_voq_pim_full_throughput () =
  let rng = Netsim.Rng.create 22 in
  let thpt =
    Fabric.Harness.saturation_throughput ~rng
      ~make_model:(fun () -> Fabric.Voq_switch.create ~rng ~n:16 ~scheduler:(Pim 3))
      ~n:16 ~slots:20_000
  in
  Alcotest.(check bool) (Printf.sprintf "%.3f > 0.93" thpt) true (thpt > 0.93)

let test_oq_ideal_throughput () =
  let rng = Netsim.Rng.create 23 in
  let thpt =
    Fabric.Harness.saturation_throughput ~rng
      ~make_model:(fun () -> Fabric.Output_queued.create ~rng ~n:16 ~k:16)
      ~n:16 ~slots:20_000
  in
  Alcotest.(check bool) (Printf.sprintf "%.3f > 0.97" thpt) true (thpt > 0.97)

let test_voq_beats_fifo_under_saturation () =
  let rng = Netsim.Rng.create 24 in
  let fifo =
    Fabric.Harness.saturation_throughput ~rng
      ~make_model:(fun () -> Fabric.Fifo_switch.create ~rng ~n:16)
      ~n:16 ~slots:10_000
  in
  let voq =
    Fabric.Harness.saturation_throughput ~rng
      ~make_model:(fun () -> Fabric.Voq_switch.create ~rng ~n:16 ~scheduler:(Pim 3))
      ~n:16 ~slots:10_000
  in
  Alcotest.(check bool) "voq wins" true (voq > fifo +. 0.25)

(* ------------------------------------------------------------------ *)
(* Harness metrics *)

let test_harness_low_load_carries_all () =
  let rng = Netsim.Rng.create 31 in
  let n = 8 in
  let model = Fabric.Voq_switch.create ~rng ~n ~scheduler:(Pim 3) in
  let traffic = Fabric.Traffic.uniform ~rng ~n ~load:0.2 in
  let m = Fabric.Harness.run ~traffic ~model ~slots:5000 () in
  Alcotest.(check bool) "tiny backlog" true (m.final_occupancy < 20);
  Alcotest.(check bool) "throughput ~ offered" true
    (abs_float (m.throughput -. 0.2) < 0.03);
  Alcotest.(check bool) "delay small" true (m.mean_delay < 2.0)

let test_harness_throughput_bounded () =
  let rng = Netsim.Rng.create 32 in
  let n = 4 in
  let model = Fabric.Output_queued.create ~rng ~n ~k:n in
  let traffic = Fabric.Traffic.uniform ~rng ~n ~load:1.0 in
  let m = Fabric.Harness.run ~traffic ~model ~slots:2000 () in
  Alcotest.(check bool) "<= 1" true (m.throughput <= 1.0 +. 1e-9)

let test_permutation_any_scheduler_full () =
  (* Contention-free traffic: even FIFO must carry everything. *)
  let rng = Netsim.Rng.create 33 in
  let n = 8 in
  let model = Fabric.Fifo_switch.create ~rng ~n in
  let traffic = Fabric.Traffic.permutation ~rng ~n ~load:0.9 in
  let m = Fabric.Harness.run ~traffic ~model ~slots:5000 () in
  Alcotest.(check bool) "carries ~0.9" true (abs_float (m.throughput -. 0.9) < 0.03)

(* ------------------------------------------------------------------ *)
(* Starvation (paper's maximum-matching example, E4) *)

let starvation_counts scheduler =
  (* Paper (1-indexed): input 1 -> outputs 2,3; input 4 -> output 3.
     0-indexed: (0,1), (0,2), (3,2). *)
  let rng = Netsim.Rng.create 41 in
  let n = 4 in
  let served = Hashtbl.create 8 in
  let on_transfer (c : Fabric.Cell.t) ~slot:_ =
    let key = (c.input, c.output) in
    Hashtbl.replace served key (1 + Option.value ~default:0 (Hashtbl.find_opt served key))
  in
  let model =
    Fabric.Voq_switch.create_observed ~obs:Obs.Sink.null ~rng ~n ~scheduler ~on_transfer
  in
  let traffic = Fabric.Traffic.fixed [ (0, 1); (0, 2); (3, 2) ] ~n in
  ignore (Fabric.Harness.run ~warmup:0 ~traffic ~model ~slots:1000 ());
  let get k = Option.value ~default:0 (Hashtbl.find_opt served k) in
  (get (0, 1), get (0, 2), get (3, 2))

let test_maximum_matching_starves () =
  let a, b, c = starvation_counts Fabric.Voq_switch.Maximum in
  Alcotest.(check bool) "0->1 served" true (a > 0);
  Alcotest.(check bool) "3->2 served" true (c > 0);
  Alcotest.(check int) "0->2 starved" 0 b

let test_pim_does_not_starve () =
  let a, b, c = starvation_counts (Fabric.Voq_switch.Pim 3) in
  Alcotest.(check bool) "0->1 served" true (a > 100);
  Alcotest.(check bool) "0->2 served" true (b > 100);
  Alcotest.(check bool) "3->2 served" true (c > 100)

let test_islip_does_not_starve () =
  let a, b, c = starvation_counts (Fabric.Voq_switch.Islip 3) in
  Alcotest.(check bool) "all served" true (a > 100 && b > 100 && c > 100)

(* ------------------------------------------------------------------ *)
(* AN1-style packet switch *)

let test_packet_source_rate () =
  let rng = Netsim.Rng.create 61 in
  let n = 8 and slots = 60_000 in
  let g =
    Fabric.Packet.Source.bimodal ~rng ~n ~load:0.6 ~short:2 ~long:32
      ~long_fraction:0.2
  in
  let cells = ref 0 in
  for slot = 0 to slots - 1 do
    for input = 0 to n - 1 do
      List.iter
        (fun (p : Fabric.Packet.t) -> cells := !cells + p.len)
        (Fabric.Packet.Source.arrivals g ~slot ~input)
    done
  done;
  let rate = float_of_int !cells /. float_of_int (n * slots) in
  Alcotest.(check bool)
    (Printf.sprintf "offered %.3f ~ 0.6" rate)
    true
    (abs_float (rate -. 0.6) < 0.05)

let test_packet_source_no_overlap () =
  (* A new packet cannot start while one is still arriving. *)
  let rng = Netsim.Rng.create 62 in
  let g = Fabric.Packet.Source.fixed_length ~rng ~n:2 ~load:1.0 ~len:5 in
  let last_end = ref 0 in
  for slot = 0 to 500 do
    List.iter
      (fun (p : Fabric.Packet.t) ->
        Alcotest.(check bool) "no overlap" true (p.arrival >= !last_end);
        last_end := p.arrival + p.len)
      (Fabric.Packet.Source.arrivals g ~slot ~input:0)
  done

let test_packet_switch_cut_through_latency () =
  let rng = Netsim.Rng.create 63 in
  let sw = Fabric.Packet_switch.create ~rng ~n:4 in
  Fabric.Packet_switch.inject sw
    (Fabric.Packet.make ~input:0 ~output:1 ~len:5 ~arrival:0);
  let completed = ref None in
  for slot = 0 to 10 do
    match Fabric.Packet_switch.step sw ~slot with
    | [ p ] -> completed := Some (slot, p)
    | [] -> ()
    | _ -> Alcotest.fail "one packet only"
  done;
  match !completed with
  | Some (slot, _) -> Alcotest.(check int) "tail leaves at len-1" 4 slot
  | None -> Alcotest.fail "never completed"

let test_packet_switch_output_exclusive () =
  (* Two packets for the same output serialize end to end. *)
  let rng = Netsim.Rng.create 64 in
  let sw = Fabric.Packet_switch.create ~rng ~n:4 in
  Fabric.Packet_switch.inject sw
    (Fabric.Packet.make ~input:0 ~output:1 ~len:5 ~arrival:0);
  Fabric.Packet_switch.inject sw
    (Fabric.Packet.make ~input:2 ~output:1 ~len:5 ~arrival:0);
  let completions = ref [] in
  for slot = 0 to 20 do
    List.iter
      (fun (p : Fabric.Packet.t) -> completions := (slot, p.input) :: !completions)
      (Fabric.Packet_switch.step sw ~slot)
  done;
  match List.rev !completions with
  | [ (t1, _); (t2, _) ] ->
    Alcotest.(check int) "second finishes 5 slots later" 5 (t2 - t1)
  | _ -> Alcotest.fail "expected two completions"

let test_packet_switch_conservation () =
  let rng = Netsim.Rng.create 65 in
  let n = 8 in
  let sw = Fabric.Packet_switch.create ~rng ~n in
  let g =
    Fabric.Packet.Source.bimodal ~rng ~n ~load:0.7 ~short:2 ~long:32
      ~long_fraction:0.2
  in
  let injected = ref 0 and departed = ref 0 in
  for slot = 0 to 5000 do
    for input = 0 to n - 1 do
      List.iter
        (fun p ->
          incr injected;
          Fabric.Packet_switch.inject sw p)
        (Fabric.Packet.Source.arrivals g ~slot ~input)
    done;
    departed := !departed + List.length (Fabric.Packet_switch.step sw ~slot)
  done;
  Alcotest.(check int) "conserved" !injected
    (!departed + Fabric.Packet_switch.occupancy sw)

let test_packet_hol_worse_with_long_packets () =
  (* Saturation throughput of the packet switch degrades as length
     variance grows - the §1 motivation for cells. *)
  let saturation gen_of =
    let rng = Netsim.Rng.create 66 in
    let n = 8 in
    let sw = Fabric.Packet_switch.create ~rng ~n in
    let g = gen_of rng n in
    let slots = 30_000 in
    for slot = 0 to slots - 1 do
      for input = 0 to n - 1 do
        List.iter (Fabric.Packet_switch.inject sw)
          (Fabric.Packet.Source.arrivals g ~slot ~input)
      done;
      ignore (Fabric.Packet_switch.step sw ~slot)
    done;
    float_of_int (Fabric.Packet_switch.carried_cells sw)
    /. float_of_int (n * slots)
  in
  let fixed =
    saturation (fun rng n -> Fabric.Packet.Source.fixed_length ~rng ~n ~load:1.0 ~len:4)
  in
  let mixed =
    saturation (fun rng n ->
        Fabric.Packet.Source.bimodal ~rng ~n ~load:1.0 ~short:2 ~long:32
          ~long_fraction:0.2)
  in
  Alcotest.(check bool)
    (Printf.sprintf "mixed %.3f < fixed %.3f" mixed fixed)
    true
    (mixed < fixed)

(* ------------------------------------------------------------------ *)
(* Hybrid switch (guaranteed + best-effort on one crossbar) *)

(* A schedule reserving a [cells]-per-frame connection for each (i,
   (i+1) mod n) pair. *)
let shifted_schedule ~n ~frame ~cells =
  let r = Frame.Reservation.create n in
  for i = 0 to n - 1 do
    Frame.Reservation.set r i ((i + 1) mod n) cells
  done;
  Frame.Packing.build_spread r ~frame

let test_hybrid_guaranteed_served_exactly () =
  let n = 8 and frame = 16 and cells = 4 in
  let rng = Netsim.Rng.create 3 in
  let schedule = shifted_schedule ~n ~frame ~cells in
  let hybrid = Fabric.Hybrid_switch.create ~rng ~schedule () in
  let model = Fabric.Hybrid_switch.model hybrid in
  let frames = 50 in
  (* Offer each guaranteed connection exactly its reservation. *)
  for f = 0 to frames - 1 do
    for s = 0 to frame - 1 do
      let slot = (f * frame) + s in
      if s < cells then
        for i = 0 to n - 1 do
          Fabric.Hybrid_switch.inject_guaranteed hybrid ~input:i
            ~output:((i + 1) mod n) ~slot
        done;
      ignore (model.Fabric.Model.step ~slot)
    done
  done;
  Alcotest.(check int) "all guaranteed cells delivered" (frames * cells * n)
    (Fabric.Hybrid_switch.guaranteed_delivered hybrid);
  Alcotest.(check bool) "bounded backlog" true
    (Fabric.Hybrid_switch.guaranteed_backlog hybrid = 0)

let test_hybrid_guaranteed_immune_to_be_load () =
  (* Saturating best-effort traffic must not displace a single
     guaranteed cell. *)
  let n = 8 and frame = 16 and cells = 4 in
  let rng = Netsim.Rng.create 4 in
  let schedule = shifted_schedule ~n ~frame ~cells in
  let hybrid = Fabric.Hybrid_switch.create ~rng ~schedule () in
  let model = Fabric.Hybrid_switch.model hybrid in
  let traffic = Fabric.Traffic.uniform ~rng ~n ~load:1.0 in
  let frames = 50 in
  for f = 0 to frames - 1 do
    for s = 0 to frame - 1 do
      let slot = (f * frame) + s in
      if s < cells then
        for i = 0 to n - 1 do
          Fabric.Hybrid_switch.inject_guaranteed hybrid ~input:i
            ~output:((i + 1) mod n) ~slot
        done;
      for input = 0 to n - 1 do
        List.iter
          (fun output ->
            model.Fabric.Model.inject (Fabric.Cell.make ~input ~output ~arrival:slot))
          (Fabric.Traffic.arrivals traffic ~slot ~input)
      done;
      ignore (model.Fabric.Model.step ~slot)
    done
  done;
  Alcotest.(check int) "guaranteed unaffected" (frames * cells * n)
    (Fabric.Hybrid_switch.guaranteed_delivered hybrid)

let test_hybrid_be_gets_leftover () =
  (* With a quarter of every line reserved and busy, saturated best
     effort should carry roughly the remaining three quarters. *)
  let n = 8 and frame = 16 and cells = 4 in
  let rng = Netsim.Rng.create 5 in
  let schedule = shifted_schedule ~n ~frame ~cells in
  let hybrid = Fabric.Hybrid_switch.create ~rng ~schedule () in
  let model = Fabric.Hybrid_switch.model hybrid in
  let traffic = Fabric.Traffic.uniform ~rng ~n ~load:1.0 in
  let slots = 20 * frame in
  let be_carried = ref 0 in
  for slot = 0 to slots - 1 do
    if slot mod frame < cells then
      for i = 0 to n - 1 do
        Fabric.Hybrid_switch.inject_guaranteed hybrid ~input:i
          ~output:((i + 1) mod n) ~slot
      done;
    for input = 0 to n - 1 do
      List.iter
        (fun output ->
          model.Fabric.Model.inject (Fabric.Cell.make ~input ~output ~arrival:slot))
        (Fabric.Traffic.arrivals traffic ~slot ~input)
    done;
    be_carried := !be_carried + List.length (model.Fabric.Model.step ~slot)
  done;
  let be_frac = float_of_int !be_carried /. float_of_int (n * slots) in
  let reserved_frac = float_of_int cells /. float_of_int frame in
  Alcotest.(check bool)
    (Printf.sprintf "BE %.2f close to leftover %.2f" be_frac (1.0 -. reserved_frac))
    true
    (be_frac > (1.0 -. reserved_frac) -. 0.1)

let test_hybrid_be_uses_idle_reservations () =
  (* Reserved but idle: best effort borrows the slots, as section 4
     allows. *)
  let n = 8 and frame = 16 and cells = 8 in
  let rng = Netsim.Rng.create 6 in
  let schedule = shifted_schedule ~n ~frame ~cells in
  let hybrid = Fabric.Hybrid_switch.create ~rng ~schedule () in
  let model = Fabric.Hybrid_switch.model hybrid in
  let traffic = Fabric.Traffic.uniform ~rng ~n ~load:1.0 in
  let slots = 20 * frame in
  let be_carried = ref 0 in
  for slot = 0 to slots - 1 do
    (* no guaranteed cells at all *)
    for input = 0 to n - 1 do
      List.iter
        (fun output ->
          model.Fabric.Model.inject (Fabric.Cell.make ~input ~output ~arrival:slot))
        (Fabric.Traffic.arrivals traffic ~slot ~input)
    done;
    be_carried := !be_carried + List.length (model.Fabric.Model.step ~slot)
  done;
  let be_frac = float_of_int !be_carried /. float_of_int (n * slots) in
  Alcotest.(check bool)
    (Printf.sprintf "BE %.2f near full rate despite 50%% reservations" be_frac)
    true (be_frac > 0.85);
  Alcotest.(check bool) "borrowed reserved slots" true
    (Fabric.Hybrid_switch.be_transmissions_in_reserved_slots hybrid > 0)

(* Exact output of the E22 setup at 25% reservation, recorded before
   the switch model moved onto the shared slot kernel: any change to
   the kernel's slot rule or RNG draw order shows here. *)
let hybrid_pin ~offer_guaranteed =
  let n = 16 and frame = 64 in
  let r = Frame.Reservation.create n in
  for i = 0 to n - 1 do
    Frame.Reservation.set r i ((i + 1) mod n) 8;
    Frame.Reservation.set r i ((i + 5) mod n) 8
  done;
  let schedule = Frame.Packing.build_spread r ~frame in
  let rng = Netsim.Rng.create 1 in
  let hybrid = Fabric.Hybrid_switch.create ~rng ~schedule () in
  let model = Fabric.Hybrid_switch.model hybrid in
  let traffic = Fabric.Traffic.uniform ~rng ~n ~load:1.0 in
  let carried = ref 0 and delay_sum = ref 0 in
  for slot = 0 to 3999 do
    if offer_guaranteed then
      for i = 0 to n - 1 do
        match Frame.Schedule.output_of schedule ~slot:(slot mod frame) ~input:i with
        | Some o -> Fabric.Hybrid_switch.inject_guaranteed hybrid ~input:i ~output:o ~slot
        | None -> ()
      done;
    for input = 0 to n - 1 do
      List.iter
        (fun output ->
          model.Fabric.Model.inject (Fabric.Cell.make ~input ~output ~arrival:slot))
        (Fabric.Traffic.arrivals traffic ~slot ~input)
    done;
    List.iter
      (fun cell ->
        incr carried;
        delay_sum := !delay_sum + Fabric.Cell.delay cell ~departure:slot)
      (model.Fabric.Model.step ~slot)
  done;
  ( Fabric.Hybrid_switch.guaranteed_delivered hybrid,
    Fabric.Hybrid_switch.be_transmissions_in_reserved_slots hybrid,
    !carried,
    !delay_sum )

let test_hybrid_pinned () =
  let check name (g, r, c, d) (g', r', c', d') =
    Alcotest.(check (list int)) name [ g; r; c; d ] [ g'; r'; c'; d' ]
  in
  check "offered: guaranteed, borrowed, BE carried, BE delay sum"
    (16000, 0, 46659, 24869070)
    (hybrid_pin ~offer_guaranteed:true);
  check "idle: guaranteed, borrowed, BE carried, BE delay sum"
    (0, 15431, 61618, 5020514)
    (hybrid_pin ~offer_guaranteed:false)

(* One random slot of the shared kernel: a random partial-permutation
   schedule, 0-2 guaranteed flows per port pair with random readiness,
   and best-effort flows that are eligible on a random pair or not at
   all. Codes below [ng] are guaranteed, the rest best effort. *)
let kernel_slot_ok seed =
  let r = Netsim.Rng.create seed in
  let n = 2 + Netsim.Rng.int r 7 in
  let pairs = n * n in
  let schedule = Frame.Schedule.create ~n ~frame:1 in
  let perm = Array.init n Fun.id in
  Netsim.Rng.shuffle_in_place r perm;
  Array.iteri
    (fun i o ->
      if Netsim.Rng.bernoulli r 0.6 then
        Frame.Schedule.place schedule ~slot:0 ~input:i ~output:o)
    perm;
  let ng = ref 0 in
  let gflows =
    Array.init pairs (fun _ ->
        Array.init (Netsim.Rng.int r 3) (fun _ ->
            incr ng;
            !ng - 1))
  in
  let ng = !ng in
  let grr =
    Array.map
      (fun codes ->
        let nf = Array.length codes in
        if nf = 0 then 0 else Netsim.Rng.int r nf)
      gflows
  in
  let gpair = Array.make ng 0 in
  Array.iteri (fun p codes -> Array.iter (fun cd -> gpair.(cd) <- p) codes) gflows;
  let ready = Array.init ng (fun _ -> Netsim.Rng.bernoulli r 0.5) in
  let nb = Netsim.Rng.int r (2 * n) in
  let bpair =
    Array.init nb (fun _ ->
        if Netsim.Rng.bernoulli r 0.3 then -1 else Netsim.Rng.int r pairs)
  in
  let slot = Netsim.Rng.int r 100 in
  let sent = ref [] in
  let flows =
    {
      Fabric.Hybrid_switch.ready = (fun cd -> ready.(cd));
      be_pair = (fun cd -> bpair.(cd - ng));
      transmit = (fun cd -> sent := cd :: !sent);
    }
  in
  let rng = Netsim.Rng.create (seed + 1) in
  let before = Netsim.Rng.copy rng in
  let sc = Fabric.Hybrid_switch.scratch ~ports:n ~max_be:nb in
  Fabric.Hybrid_switch.run_slot sc flows ~schedule ~slot ~gflows ~grr
    ~be_flows:(Array.init nb (fun b -> ng + b))
    ~rng;
  let sent = List.rev !sent in
  let pair_of cd = if cd < ng then gpair.(cd) else bpair.(cd - ng) in
  let g_sent = List.filter (fun cd -> cd < ng) sent in
  let be_sent = List.filter (fun cd -> cd >= ng) sent in
  let once xs = List.length (List.sort_uniq compare xs) = List.length xs in
  let ins = List.map (fun cd -> pair_of cd / n) sent in
  let outs = List.map (fun cd -> pair_of cd mod n) sent in
  let g_ins = List.map (fun cd -> gpair.(cd) / n) g_sent in
  let g_outs = List.map (fun cd -> gpair.(cd) mod n) g_sent in
  let scheduled p =
    Frame.Schedule.output_at schedule ~slot:0 ~input:(p / n) = p mod n
  in
  (* Each input and output carries at most one cell; no flow sends
     twice. *)
  let ports_once = once ins && once outs && once sent in
  (* A scheduled pair with a ready flow sends exactly one of its flows,
     and no other pair sends guaranteed cells. *)
  let guaranteed_exact =
    List.for_all (fun cd -> scheduled gpair.(cd)) g_sent
    && Array.for_all Fun.id
         (Array.mapi
            (fun p codes ->
              let sends =
                List.length (List.filter (fun cd -> gpair.(cd) = p) g_sent)
              in
              if scheduled p && Array.exists (fun cd -> ready.(cd)) codes then
                sends = 1
              else sends = 0)
            gflows)
  in
  (* Best effort never uses a port a guaranteed cell took. *)
  let be_masked =
    List.for_all
      (fun cd ->
        let p = bpair.(cd - ng) in
        (not (List.mem (p / n) g_ins)) && not (List.mem (p mod n) g_outs))
      be_sent
  in
  (* Only eligible flows transmit. *)
  let eligible_only =
    List.for_all (fun cd -> ready.(cd)) g_sent
    && List.for_all (fun cd -> bpair.(cd - ng) >= 0) be_sent
  in
  (* With no eligible best-effort flow, the stream is untouched. *)
  let none_eligible =
    Array.for_all
      (fun p -> p < 0 || List.mem (p / n) g_ins || List.mem (p mod n) g_outs)
      bpair
  in
  let rng_kept =
    (not none_eligible) || Netsim.Rng.bits64 rng = Netsim.Rng.bits64 before
  in
  ports_once && guaranteed_exact && be_masked && eligible_only && rng_kept

let test_kernel_properties =
  qtest ~count:500 "slot kernel: one cell per port, guaranteed first"
    (QCheck.make ~print:(Printf.sprintf "seed=%d") QCheck.Gen.(int_range 0 1_000_000))
    kernel_slot_ok

let () =
  Alcotest.run "fabric"
    [
      ( "traffic",
        [
          Alcotest.test_case "uniform rate" `Quick test_uniform_rate;
          Alcotest.test_case "uniform covers" `Quick test_uniform_destinations_cover;
          Alcotest.test_case "bursty rate" `Quick test_bursty_rate;
          Alcotest.test_case "bursty correlation" `Quick test_bursty_correlation;
          Alcotest.test_case "hotspot bias" `Quick test_hotspot_bias;
          Alcotest.test_case "permutation dests" `Quick test_permutation_dests;
          Alcotest.test_case "fixed pattern" `Quick test_fixed_pattern;
        ] );
      ( "models",
        [
          test_fifo_conservation;
          test_voq_conservation;
          test_oq_conservation;
          Alcotest.test_case "voq one departure/input" `Quick
            test_voq_one_departure_per_input_slot;
        ] );
      ( "saturation",
        [
          Alcotest.test_case "fifo ~58-60% (paper)" `Slow test_fifo_58_percent;
          Alcotest.test_case "fifo exact at N=2,3,4,8 (Karol)" `Slow
            test_fifo_karol_exact;
          Alcotest.test_case "voq+pim ~100% (paper)" `Slow
            test_voq_pim_full_throughput;
          Alcotest.test_case "output-queued ideal" `Slow test_oq_ideal_throughput;
          Alcotest.test_case "voq beats fifo" `Slow
            test_voq_beats_fifo_under_saturation;
        ] );
      ( "harness",
        [
          Alcotest.test_case "low load carries all" `Quick
            test_harness_low_load_carries_all;
          Alcotest.test_case "throughput bounded" `Quick
            test_harness_throughput_bounded;
          Alcotest.test_case "permutation full" `Quick
            test_permutation_any_scheduler_full;
        ] );
      ( "packet (AN1)",
        [
          Alcotest.test_case "source rate" `Quick test_packet_source_rate;
          Alcotest.test_case "source no overlap" `Quick
            test_packet_source_no_overlap;
          Alcotest.test_case "cut-through latency" `Quick
            test_packet_switch_cut_through_latency;
          Alcotest.test_case "output exclusive" `Quick
            test_packet_switch_output_exclusive;
          Alcotest.test_case "conservation" `Quick test_packet_switch_conservation;
          Alcotest.test_case "HOL worse with long packets (paper)" `Slow
            test_packet_hol_worse_with_long_packets;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "guaranteed served exactly" `Quick
            test_hybrid_guaranteed_served_exactly;
          Alcotest.test_case "guaranteed immune to BE load (paper)" `Quick
            test_hybrid_guaranteed_immune_to_be_load;
          Alcotest.test_case "BE gets the leftover (paper)" `Quick
            test_hybrid_be_gets_leftover;
          Alcotest.test_case "BE borrows idle reservations (paper)" `Quick
            test_hybrid_be_uses_idle_reservations;
          Alcotest.test_case "E22 25% output pinned" `Quick test_hybrid_pinned;
          test_kernel_properties;
        ] );
      ( "starvation",
        [
          Alcotest.test_case "maximum matching starves (paper)" `Quick
            test_maximum_matching_starves;
          Alcotest.test_case "pim does not starve (paper)" `Quick
            test_pim_does_not_starve;
          Alcotest.test_case "islip does not starve" `Quick
            test_islip_does_not_starve;
        ] );
    ]
