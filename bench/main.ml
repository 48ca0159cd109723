(* Benchmark harness: regenerates every figure and quantitative claim
   of "A Perspective on AN2" (Owicki, PODC 1993). See DESIGN.md for the
   experiment index and EXPERIMENTS.md for recorded results.

   Usage:
     dune exec bench/main.exe              # run everything
     dune exec bench/main.exe -- --only E2 # one experiment
     dune exec bench/main.exe -- --list    # list experiment ids *)

let experiments =
  [
    ("F1", "Figure 1: SRC-style installation", Exp_figures.f1);
    ("F2", "Figures 2+3: frame schedule & SD insertion (alias: F3)", Exp_figures.f2_f3);
    ("F4", "Figure 4: credit flow-control trace", Exp_figures.f4);
    ("E1", "FIFO 58% vs VOQ+PIM", Exp_fabric.e1);
    ("E2", "PIM iterations bound", Exp_fabric.e2);
    ("E3", "PIM3 vs output queueing", Exp_fabric.e3);
    ("E4", "maximum-matching starvation", Exp_fabric.e4);
    ("E5", "Slepian-Duguid cost/robustness", Exp_frame.e5);
    ("E6", "guaranteed latency bound", Exp_e2e.e6);
    ("E7", "guaranteed buffer occupancy", Exp_e2e.e7);
    ("E8", "reconfiguration under 200ms", Exp_reconfig.e8);
    ("E9", "overlapping reconfigurations", Exp_reconfig.e9);
    ("E10", "skeptic damps flapping", Exp_reconfig.e10);
    ("E11", "propagation tree near-BFS", Exp_reconfig.e11);
    ("E12", "credits = round-trip sizing", Exp_flow.e12);
    ("E13", "lost credits & resync", Exp_flow.e13);
    ("E14", "deadlock disciplines", Exp_flow.e14);
    ("E15", "up*/down* path stretch", Exp_flow.e15);
    ("E16", "slot packing for best effort", Exp_frame.e16);
    ("E17", "nested frames ablation", Exp_frame.e17);
    ("E18", "dynamic buffer allocation ablation", Exp_flow.e18);
    ("E19", "multicast tree economy", Exp_multicast.e19);
    ("E20", "localized reconfiguration ablation", Exp_reconfig.e20);
    ("E21", "load-balancing reroute ablation", Exp_rebalance.e21);
    ("E22", "hybrid crossbar sharing", Exp_hybrid.e22);
    ("E23", "circuit-setup signaling", Exp_signaling.e23);
    ("E24", "AN1 packets vs AN2 cells", Exp_packet.e24);
    ("E25", "up*/down* throughput penalty", Exp_flow.e25);
    ("E26", "PIM as message-passing hardware", Exp_fabric.e26);
    ("E27", "reconfiguration over lossy control links", Exp_reconfig.e27);
    ("E28", "whole-system mixed workload with failure", Exp_system.e28);
  ]

(* F3 shares F2's runner. *)
let canonical = function "F3" -> "F2" | id -> id

let () =
  let list = ref false and only = ref None in
  Util.parse_argv ~usage:"[--list] [--only ID...]"
    [
      ("--list", Util.Flag (fun () -> list := true));
      ("--only", Util.Rest (fun ids -> only := Some ids));
    ];
  let known id =
    List.exists (fun (eid, _, _) -> eid = canonical id) experiments
  in
  if !list then
    List.iter
      (fun (id, what, _) -> Printf.printf "%-5s %s\n" id what)
      experiments
  else
    match !only with
    | Some ids ->
      let unknown = List.filter (fun id -> not (known id)) ids in
      if unknown <> [] then begin
        List.iter (Printf.eprintf "unknown experiment id: %s\n") unknown;
        exit 2
      end;
      let ids = List.map canonical ids in
      List.iter (fun (id, _, f) -> if List.mem id ids then f ()) experiments
    | None ->
      List.iter (fun (_, _, f) -> f ()) experiments;
      Printf.printf "\nAll experiments complete.\n"
