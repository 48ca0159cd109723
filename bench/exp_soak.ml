(* E36: endurance soak — checkpoint/restore, invariant audits, and
   time-to-reproduce with automatic bisection.

   One soak composes the TPS workload, link churn with skeptic-gated
   repair, and partition episodes over hours of simulated lifetime,
   with a byte-exact snapshot at every window boundary. The bench
   proves four things:

   - the N-hour soak stays audit-clean, and checkpoints are small and
     cheap (size and wall write cost recorded);
   - resume-equality: restarting from a mid-run checkpoint reproduces
     the uninterrupted run's remaining checkpoints and final.snap
     byte for byte;
   - sweeps are domain-deterministic: --jobs 1 and --jobs N produce
     identical per-seed reports;
   - a reservation leak planted past the one-simulated-hour mark is
     caught by the audit, and bisecting over the stored checkpoints
     (restore-and-audit probes + one traced window replay) reproduces
     it at a small fraction of the from-scratch replay cost — the
     acceptance gate asserts >= 10x cheaper in the full run.

   Usage: dune exec bench/exp_soak.exe [-- --smoke] [-- --out FILE] *)

module Soak = Faults.Soak

let mk_graph () = Topo.Build.src_lan ()

let files_equal a b =
  let read f = In_channel.with_open_bin f In_channel.input_all in
  read a = read b

let fresh_dir name =
  let d = Filename.concat (Filename.get_temp_dir_name ()) name in
  if Sys.file_exists d then
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
  else Sys.mkdir d 0o755;
  d

(* Everything in a report that must be identical across a resume or a
   parallel sweep — wall-clock fields excluded. *)
let report_key (r : Soak.report) =
  ( r.windows,
    r.final_digest,
    r.arrivals,
    r.established,
    r.failed,
    r.granted,
    r.denied,
    r.reconfigs,
    r.link_failures,
    r.partitions,
    List.map
      (fun (c : Soak.checkpoint) -> (c.ck_window, c.ck_digest, c.ck_bytes))
      r.checkpoints )

let report_json (r : Soak.report) =
  let n_ck = List.length r.checkpoints in
  let last_bytes =
    match List.rev r.checkpoints with
    | c :: _ -> c.Soak.ck_bytes
    | [] -> 0
  in
  let write_ms_mean =
    List.fold_left
      (fun a (c : Soak.checkpoint) -> a +. float_of_int c.ck_write_ns)
      0.0 r.checkpoints
    /. float_of_int (max 1 n_ck)
    /. 1e6
  in
  let open Obs.Json in
  Obj
    [
      ("windows", Util.int r.windows);
      ("sim_s", Num (Netsim.Time.to_s r.sim_time));
      ("arrivals", Util.int r.arrivals);
      ("established", Util.int r.established);
      ("failed", Util.int r.failed);
      ("granted", Util.int r.granted);
      ("denied", Util.int r.denied);
      ("held_released", Util.int r.held_released);
      ("reconfigs", Util.int r.reconfigs);
      ("reconfigs_converged", Util.int r.reconfigs_converged);
      ("link_failures", Util.int r.link_failures);
      ("link_repairs", Util.int r.link_repairs);
      ("partitions", Util.int r.partitions);
      ("rerouted", Util.int r.rerouted);
      ("dissolved", Util.int r.dissolved);
      ("readmitted", Util.int r.readmitted);
      ("audits_run", Util.int r.audits_run);
      ("audits_clean", Util.int r.audits_clean);
      ("gc_reclaimed", Util.int r.gc_reclaimed);
      ("checkpoints", Util.int n_ck);
      ("checkpoint_bytes", Util.int last_bytes);
      ("checkpoint_write_ms_mean", Num write_ms_mean);
      ("final_digest", Util.int r.final_digest);
      ( "violation_window",
        Util.int (match r.violation with Some (w, _) -> w | None -> -1) );
      ("wall_s", Num r.wall_s);
    ]

let () =
  let cli = Util.cli ~default_out:"BENCH_soak.json" in
  let smoke = cli.smoke in
  (* Full mode soaks 1.1 simulated hours with the leak planted past
     the 1 h mark; smoke keeps the same structure over 30 s. *)
  let cfg =
    {
      Soak.default_config with
      total = Netsim.Time.s (if smoke then 30 else 3960);
      every = Netsim.Time.s 5;
      audit_every = 4;
      thresholds =
        { Faults.Tps.default_thresholds with terminal_failure_pct = 25.0 };
    }
  in
  let inject_at = Netsim.Time.s (if smoke then 20 else 3660) in
  (* --- the clean N-hour soak, checkpointed every window ------------- *)
  let dir1 = fresh_dir "an2-soak-main" in
  let main = Soak.run ~dir:dir1 ~mk_graph cfg in
  Printf.printf
    "E36 soak: %d windows / %.1f sim s in %.1f s wall; %d audits all clean \
     %b; ckpt %d bytes\n%!"
    main.windows
    (Netsim.Time.to_s main.sim_time)
    main.wall_s main.audits_run
    (main.audits_clean = main.audits_run)
    (match List.rev main.checkpoints with
    | c :: _ -> c.Soak.ck_bytes
    | [] -> 0);
  let clean_ok = main.violation = None in
  (* --- resume-equality: restart from the middle checkpoint ---------- *)
  let dir2 = fresh_dir "an2-soak-resume" in
  let mid = main.windows / 2 in
  let resumed =
    Soak.run ~dir:dir2 ~resume:(Soak.ckpt_path dir1 mid) ~mk_graph cfg
  in
  let resume_identical =
    resumed.violation = None
    && files_equal (Soak.final_path dir1) (Soak.final_path dir2)
    && files_equal
         (Soak.ckpt_path dir1 main.windows)
         (Soak.ckpt_path dir2 main.windows)
    && resumed.final_digest = main.final_digest
  in
  Printf.printf "E36 resume from ckpt %d: byte-identical %b\n%!" mid
    resume_identical;
  (* --- sweep determinism: one domain vs many ------------------------ *)
  let sweep_cfg = { cfg with Soak.total = Netsim.Time.s 20 } in
  let job seed = Soak.run ~mk_graph { sweep_cfg with Soak.seed = seed } in
  let seeds = [ 1; 2; 3 ] in
  let project = List.map (fun (s, r) -> (s, report_key r)) in
  let seq = project (Netsim.Sweep.map ~domains:1 ~seeds job) in
  let par = project (Netsim.Sweep.map ~seeds job) in
  let sweep_deterministic = seq = par in
  Printf.printf "E36 sweep seq/par deterministic: %b\n%!" sweep_deterministic;
  (* --- the planted leak: detect, then reproduce both ways ----------- *)
  let fault_cfg = { cfg with Soak.inject = Some (inject_at, 3, 7) } in
  let dir3 = fresh_dir "an2-soak-fault" in
  let fault = Soak.run ~dir:dir3 ~mk_graph fault_cfg in
  let detected =
    match fault.violation with
    | Some (w, _) -> w
    | None ->
      prerr_endline "E36: planted leak was not detected";
      exit 1
  in
  (* with bisection: binary-search the stored checkpoints, then replay
     one window *)
  let b = Soak.bisect ~dir:dir3 fault_cfg ~detected in
  (* without: replay from scratch, auditing every window until the
     violation surfaces *)
  let naive =
    Soak.run ~mk_graph { fault_cfg with Soak.audit_every = 1 }
  in
  let naive_found = naive.violation <> None in
  let reproduced = b.replay_violations <> [] && naive_found in
  let speedup = naive.wall_s /. Float.max 1e-9 b.bisect_wall_s in
  Printf.printf
    "E36 bisect: detected at window %d, offending %d, %d probes; %.3f s \
     with bisection vs %.3f s from scratch (%.0fx)\n%!"
    detected b.offending_window b.probes b.bisect_wall_s naive.wall_s speedup;
  (* --- JSON + gates ------------------------------------------------- *)
  let open Obs.Json in
  Util.write_json cli ~schema:"an2-soak-v1"
    [
      ("e36_soak", report_json main);
      ("resume_identical", Bool resume_identical);
      ("sweep_deterministic", Bool sweep_deterministic);
      ( "e36_bisect",
        Obj
          [
            ("inject_at_sim_s", Num (Netsim.Time.to_s inject_at));
            ("detected_window", Util.int detected);
            ("offending_window", Util.int b.offending_window);
            ("probes", Util.int b.probes);
            ("bisect_s", Num b.bisect_wall_s);
            ("from_scratch_s", Num naive.wall_s);
            ("speedup", Num speedup);
            ("reproduced", Bool reproduced);
            ("fault_run", report_json fault);
          ] );
    ];
  (* Acceptance: clean soak, byte-identical resume, deterministic
     sweep, leak reproduced — and in the full run the bisection must
     come in at <= 1/10th of the from-scratch cost. *)
  let fast_enough = smoke || speedup >= 10.0 in
  if not fast_enough then
    Printf.eprintf "E36: bisection speedup %.1fx below the 10x floor\n"
      speedup;
  if not (clean_ok && resume_identical && sweep_deterministic && reproduced)
  then begin
    Printf.eprintf
      "E36: clean=%b resume=%b sweep=%b reproduced=%b\n"
      clean_ok resume_identical sweep_deterministic reproduced;
    exit 1
  end;
  if not fast_enough then exit 1
