(* Soak harness: resume-from-checkpoint byte equality, audit-clean
   endurance over churn + partitions, seeded-leak detection with
   bisection to the offending window, and loud rejection of damaged
   checkpoint files. *)

module Soak = Faults.Soak
module Snap = Netsim.Snapshot

let mk_graph () = Topo.Build.src_lan ()

(* Short but structurally complete: several audit periods, churn every
   window, one partition episode, cross-window holds. *)
let cfg =
  {
    Soak.default_config with
    total = Netsim.Time.s 20;
    every = Netsim.Time.s 2;
    rate = 100.0;
    audit_every = 2;
    partition_every = 5;
    terminal_failure_pct = 25.0;
  }

let fresh_dir name =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "an2-test-soak-%s" name)
  in
  if Sys.file_exists d then
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
  else Sys.mkdir d 0o755;
  d

let read_file f = In_channel.with_open_bin f In_channel.input_all

let test_clean_soak_audits_pass () =
  let r = Soak.run ~mk_graph cfg in
  Alcotest.(check bool) "no violation" true (r.violation = None);
  Alcotest.(check bool) "audits ran" true (r.audits_run > 0);
  Alcotest.(check int) "all audits clean" r.audits_run r.audits_clean;
  Alcotest.(check bool) "workload flowed" true (r.established > 0);
  Alcotest.(check bool) "churn happened" true (r.link_failures > 0);
  Alcotest.(check bool) "a partition happened" true (r.partitions > 0)

let test_run_is_deterministic () =
  let a = Soak.run ~mk_graph cfg and b = Soak.run ~mk_graph cfg in
  Alcotest.(check int) "same digest" a.final_digest b.final_digest;
  Alcotest.(check int) "same arrivals" a.arrivals b.arrivals;
  Alcotest.(check int) "same window count" a.windows b.windows

let test_resume_replays_identical () =
  (* Run A uninterrupted; run B killed mid-run and resumed from its own
     checkpoint. Every artifact after the seam must match run A's,
     byte for byte. *)
  let da = fresh_dir "full" and db = fresh_dir "resumed" in
  let a = Soak.run ~dir:da ~mk_graph cfg in
  let killed = Soak.run ~dir:db ~stop_after:4 ~mk_graph cfg in
  Alcotest.(check int) "killed where asked" 4 killed.windows;
  let resumed =
    Soak.run ~dir:db ~resume:(Soak.ckpt_path db 4) ~mk_graph cfg
  in
  Alcotest.(check bool) "resumed to the end" true (resumed.windows = a.windows);
  Alcotest.(check int) "digest matches" a.final_digest resumed.final_digest;
  Alcotest.(check bool)
    "final.snap byte-identical" true
    (read_file (Soak.final_path da) = read_file (Soak.final_path db));
  Alcotest.(check bool)
    "post-seam checkpoint byte-identical" true
    (read_file (Soak.ckpt_path da a.windows)
    = read_file (Soak.ckpt_path db a.windows))

let test_checkpoint_decodes_canonically () =
  let d = fresh_dir "canon" in
  let r = Soak.run ~dir:d ~mk_graph cfg in
  let path = Soak.ckpt_path d (r.windows / 2) in
  let bytes = read_file path in
  Alcotest.(check bool)
    "decode then encode is identity" true
    (Snap.encode (Snap.decode bytes) = bytes);
  Alcotest.(check bool)
    "clean checkpoint audits clean" true
    (Soak.audit_file cfg path = [])

let test_corrupted_checkpoint_rejected () =
  let d = fresh_dir "corrupt" in
  ignore (Soak.run ~dir:d ~stop_after:2 ~mk_graph cfg);
  let path = Soak.ckpt_path d 2 in
  let b = Bytes.of_string (read_file path) in
  let mid = Bytes.length b / 2 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0xFF));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc b);
  (match Soak.run ~resume:path ~mk_graph cfg with
  | exception Snap.Corrupt _ -> ()
  | _ -> Alcotest.fail "corrupted checkpoint was accepted");
  let trunc = Soak.ckpt_path d 1 in
  let whole = read_file trunc in
  Out_channel.with_open_bin trunc (fun oc ->
      Out_channel.output_string oc
        (String.sub whole 0 (String.length whole / 3)));
  match Soak.run ~resume:trunc ~mk_graph cfg with
  | exception Snap.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncated checkpoint was accepted"

let test_seeded_leak_detected_and_bisected () =
  let d = fresh_dir "leak" in
  let fcfg = { cfg with Soak.inject = Some (Netsim.Time.s 13, 3, 7) } in
  let r = Soak.run ~dir:d ~mk_graph fcfg in
  let detected =
    match r.violation with
    | Some (w, what) ->
      Alcotest.(check bool) "audit says what broke" true (what <> []);
      w
    | None -> Alcotest.fail "planted leak not detected"
  in
  let b = Soak.bisect ~dir:d fcfg ~detected in
  Alcotest.(check bool)
    "offending window within the audit period" true
    (b.offending_window > detected - fcfg.Soak.audit_every
    && b.offending_window <= detected);
  Alcotest.(check bool)
    "single-window replay reproduces it" true
    (b.replay_violations <> []);
  Alcotest.(check bool) "probes bounded by log of period" true (b.probes <= 3)

let () =
  Alcotest.run "soak"
    [
      ( "endurance",
        [
          Alcotest.test_case "clean soak, audits pass" `Quick
            test_clean_soak_audits_pass;
          Alcotest.test_case "deterministic" `Quick test_run_is_deterministic;
        ] );
      ( "checkpoint/restore",
        [
          Alcotest.test_case "resume replays identical" `Quick
            test_resume_replays_identical;
          Alcotest.test_case "canonical checkpoint bytes" `Quick
            test_checkpoint_decodes_canonically;
          Alcotest.test_case "corrupted checkpoint rejected" `Quick
            test_corrupted_checkpoint_rejected;
        ] );
      ( "bisection",
        [
          Alcotest.test_case "seeded leak detected and bisected" `Quick
            test_seeded_leak_detected_and_bisected;
        ] );
    ]
