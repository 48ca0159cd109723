(* E1-E4: intra-switch scheduling experiments (paper section 3). *)

let n = 16
let slots = 20_000

let make_model rng = function
  | `Fifo -> Fabric.Fifo_switch.create ~rng ~n
  | `Pim k -> Fabric.Voq_switch.create ~rng ~n ~scheduler:(Pim k)
  | `Islip k -> Fabric.Voq_switch.create ~rng ~n ~scheduler:(Islip k)
  | `Greedy -> Fabric.Voq_switch.create ~rng ~n ~scheduler:Greedy_random
  | `Maximum -> Fabric.Voq_switch.create ~rng ~n ~scheduler:Maximum
  | `Oq k -> Fabric.Output_queued.create ~rng ~n ~k

let model_name = function
  | `Fifo -> "FIFO"
  | `Pim k -> Printf.sprintf "VOQ+PIM%d" k
  | `Islip k -> Printf.sprintf "VOQ+iSLIP%d" k
  | `Greedy -> "VOQ+greedy"
  | `Maximum -> "VOQ+maximum"
  | `Oq k -> Printf.sprintf "OQ(k=%d)" k

let run_one seed model traffic_of =
  let rng = Netsim.Rng.create seed in
  let m = make_model rng model in
  Fabric.Harness.run ~traffic:(traffic_of rng) ~model:m ~slots ()

(* ------------------------------------------------------------------ *)

let e1 () =
  Util.header "E1"
    ~paper:"section 3 (Karol et al. 87)"
    ~claim:
      "head-of-line blocking limits FIFO input queueing to ~58-60% of link \
       rate under uniform traffic; random-access input buffers with PIM \
       remove the limit";
  let models = [ `Fifo; `Pim 3; `Oq 16 ] in
  Printf.printf "%-10s" "load";
  List.iter (fun m -> Printf.printf "%14s" (model_name m)) models;
  print_newline ();
  let saturation = Hashtbl.create 8 in
  List.iter
    (fun load ->
      Printf.printf "%-10.2f" load;
      List.iter
        (fun model ->
          let r =
            run_one 42 model (fun rng -> Fabric.Traffic.uniform ~rng ~n ~load)
          in
          if load = 1.0 then Hashtbl.replace saturation (model_name model) r.throughput;
          Printf.printf "%14.3f" r.throughput)
        models;
      print_newline ())
    [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.55; 0.6; 0.7; 0.8; 0.9; 1.0 ];
  let fifo = Hashtbl.find saturation "FIFO" in
  let pim = Hashtbl.find saturation "VOQ+PIM3" in
  let oq = Hashtbl.find saturation "OQ(k=16)" in
  Printf.printf "saturation: FIFO=%.3f  VOQ+PIM3=%.3f  OQ=%.3f\n" fifo pim oq;
  (* Replicate the headline saturation numbers over seeds for error
     bars. *)
  let seeds = [ 101; 202; 303; 404; 505 ] in
  let sat model seed =
    let rng = Netsim.Rng.create seed in
    (Fabric.Harness.run
       ~traffic:(Fabric.Traffic.uniform ~rng ~n ~load:1.0)
       ~model:(make_model rng model) ~slots:10_000 ())
      .throughput
  in
  let fm, fs = Util.replicate ~seeds (sat `Fifo) in
  let pm, ps = Util.replicate ~seeds (sat (`Pim 3)) in
  Printf.printf "over %d seeds: FIFO %.3f+-%.3f, VOQ+PIM3 %.3f+-%.3f\n"
    (List.length seeds) fm fs pm ps;
  Util.shape "FIFO saturates near 0.58-0.62" (fm > 0.55 && fm < 0.65);
  Util.shape "VOQ+PIM3 within 5% of ideal OQ" (pm > oq -. 0.05);
  Util.shape "seed variance is small" (fs < 0.02 && ps < 0.02)

let e2 () =
  Util.header "E2" ~paper:"section 3"
    ~claim:
      "PIM reaches a maximal match in, on average, at most log2 N + 4/3 \
       iterations (5.32 for the 16x16 AN2 switch), independent of arrival \
       pattern; >98% of slots finish within 4 iterations";
  let trials = 4000 in
  Printf.printf "%-6s %-10s %-10s %-12s %-12s\n" "N" "avg-iters" "bound"
    "%within-4" "max-iters";
  let all_ok = ref true in
  List.iter
    (fun size ->
      let rng = Netsim.Rng.create 7 in
      (* One request and one scheduler scratch reused across all
         trials (randomize is draw-for-draw the same as random). *)
      let req = Matching.Request.create size in
      let state = Matching.Pim.create size in
      let sum = ref 0 and within = ref 0 and worst = ref 0 in
      for _ = 1 to trials do
        Matching.Request.randomize ~rng ~density:0.75 req;
        let k = Matching.Pim.iterations_to_maximal ~state ~rng req in
        sum := !sum + k;
        if k <= 4 then incr within;
        if k > !worst then worst := k
      done;
      let avg = float_of_int !sum /. float_of_int trials in
      let bound = (log (float_of_int size) /. log 2.0) +. (4.0 /. 3.0) in
      let pct = 100.0 *. float_of_int !within /. float_of_int trials in
      if avg > bound then all_ok := false;
      Printf.printf "%-6d %-10.3f %-10.3f %-12.1f %-12d\n" size avg bound pct !worst)
    [ 4; 8; 16; 32 ];
  Util.shape "average within the log2 N + 4/3 bound" !all_ok;
  (* The headline 16x16 numbers. *)
  let rng = Netsim.Rng.create 9 in
  let req = Matching.Request.create 16 in
  let state = Matching.Pim.create 16 in
  let within = ref 0 in
  for _ = 1 to trials do
    Matching.Request.randomize ~rng ~density:0.75 req;
    if Matching.Pim.iterations_to_maximal ~state ~rng req <= 4 then incr within
  done;
  Util.shape ">98% within 4 iterations at N=16"
    (float_of_int !within /. float_of_int trials >= 0.98)

let e3 () =
  Util.header "E3" ~paper:"section 3"
    ~claim:
      "VOQ with 3 PIM iterations achieves throughput and latency close to \
       output queueing with k=16 and unbounded buffers, across arrival \
       patterns";
  let patterns =
    [
      ("uniform", fun rng -> Fabric.Traffic.uniform ~rng ~n ~load:0.9);
      ("bursty(16)", fun rng -> Fabric.Traffic.bursty ~rng ~n ~load:0.9 ~mean_burst:16.0);
      ("hotspot(20%)", fun rng -> Fabric.Traffic.hotspot ~rng ~n ~load:0.7 ~hot_fraction:0.2);
      ("permutation", fun rng -> Fabric.Traffic.permutation ~rng ~n ~load:0.95);
    ]
  in
  let models = [ `Pim 1; `Pim 3; `Pim 4; `Islip 3; `Greedy; `Maximum; `Oq 16; `Fifo ] in
  Printf.printf "%-14s %-12s %10s %10s %10s\n" "pattern" "scheduler" "thpt"
    "mean-delay" "p99-delay";
  let results = Hashtbl.create 32 in
  List.iter
    (fun (pname, traffic) ->
      List.iter
        (fun model ->
          let r = run_one 11 model traffic in
          Hashtbl.replace results (pname, model_name model) r;
          Printf.printf "%-14s %-12s %10.3f %10.2f %10.2f\n" pname
            (model_name model) r.throughput r.mean_delay r.p99_delay)
        models;
      print_newline ())
    patterns;
  let close pname =
    let pim = Hashtbl.find results (pname, "VOQ+PIM3") in
    let oq = Hashtbl.find results (pname, "OQ(k=16)") in
    pim.Fabric.Harness.throughput >= oq.Fabric.Harness.throughput -. 0.05
  in
  Util.shape "PIM3 throughput within 5% of OQ on all patterns"
    (List.for_all (fun (p, _) -> close p) patterns)

let e4 () =
  Util.header "E4" ~paper:"section 3 (starvation example)"
    ~claim:
      "with persistent demand 1->{2,3} and 4->{3}, deterministic maximum \
       matching starves circuit 1->3 forever; PIM's random choices serve \
       all three circuits";
  let run scheduler =
    let rng = Netsim.Rng.create 5 in
    let served = Hashtbl.create 8 in
    let on_transfer (c : Fabric.Cell.t) ~slot:_ =
      let key = (c.input, c.output) in
      Hashtbl.replace served key
        (1 + Option.value ~default:0 (Hashtbl.find_opt served key))
    in
    let model =
      Fabric.Voq_switch.create_observed ~obs:Obs.Sink.null ~rng ~n:4 ~scheduler
        ~on_transfer
    in
    let traffic = Fabric.Traffic.fixed [ (0, 1); (0, 2); (3, 2) ] ~n:4 in
    ignore (Fabric.Harness.run ~warmup:0 ~traffic ~model ~slots:10_000 ());
    let get k = Option.value ~default:0 (Hashtbl.find_opt served k) in
    (get (0, 1), get (0, 2), get (3, 2))
  in
  Printf.printf "%-14s %10s %10s %10s\n" "scheduler" "1->2" "1->3" "4->3";
  let ma, mb, mc = run Fabric.Voq_switch.Maximum in
  Printf.printf "%-14s %10d %10d %10d\n" "maximum" ma mb mc;
  let pa, pb, pc = run (Fabric.Voq_switch.Pim 3) in
  Printf.printf "%-14s %10d %10d %10d\n" "PIM3" pa pb pc;
  let ia, ib, ic = run (Fabric.Voq_switch.Islip 3) in
  Printf.printf "%-14s %10d %10d %10d\n" "iSLIP3" ia ib ic;
  Util.shape "maximum starves 1->3" (mb = 0 && ma > 0 && mc > 0);
  Util.shape "PIM serves all three" (pa > 1000 && pb > 1000 && pc > 1000);
  Util.shape "iSLIP serves all three" (ia > 1000 && ib > 1000 && ic > 1000)

let e26 () =
  Util.header "E26" ~paper:"section 3 (PIM as a distributed algorithm)"
    ~claim:
      "PIM really is distributed: request/grant/accept signals on dedicated \
       wires between line cards, no central scheduler; with board-level \
       delays, three full iterations fit the half-microsecond cell slot";
  let t = Matching.Pim_distributed.default_timing in
  Printf.printf
    "wire %dns, arbitration %dns -> one round = %dns (3 crossings + 2 \
     arbitrations)\n"
    t.wire t.logic
    (Matching.Pim_distributed.iteration_time t);
  Printf.printf "%-12s %14s %16s\n" "iterations" "elapsed(ns)" "fits 500ns slot";
  List.iter
    (fun iters ->
      let rng = Netsim.Rng.create 3 in
      let req = Matching.Request.full 16 in
      let o = Matching.Pim_distributed.run ~rng req ~iterations:iters in
      Printf.printf "%-12d %14d %16b\n" iters o.elapsed
        (Matching.Pim_distributed.fits_slot t ~iterations:iters ~slot:500))
    [ 1; 2; 3; 4; 5 ];
  (* Match quality equals the monolithic implementation's. *)
  let rng = Netsim.Rng.create 4 in
  let trials = 1000 in
  let mono = ref 0 and dist = ref 0 in
  for _ = 1 to trials do
    let req = Matching.Request.random ~rng ~n:16 ~density:0.75 in
    mono := !mono + Matching.Outcome.pairs (Matching.Pim.run ~rng req ~iterations:3);
    dist :=
      !dist
      + Matching.Outcome.pairs
          (Matching.Pim_distributed.run ~rng req ~iterations:3).matching
  done;
  let m = float_of_int !mono /. float_of_int trials in
  let d = float_of_int !dist /. float_of_int trials in
  Printf.printf "mean pairs per slot: monolithic %.2f vs message-passing %.2f\n" m d;
  Util.shape "3 iterations fit the 500ns slot"
    (Matching.Pim_distributed.fits_slot t ~iterations:3 ~slot:500);
  Util.shape "distributed matches monolithic quality" (abs_float (m -. d) < 0.15)

let run () =
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  e26 ()
