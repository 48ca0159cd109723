(* Tests for the crossbar matching library: PIM, greedy, Hopcroft-Karp,
   iSLIP, and the outcome verifiers. *)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let req_gen =
  QCheck.make
    ~print:(fun (seed, n, density) ->
      Printf.sprintf "seed=%d n=%d density=%.2f" seed n density)
    QCheck.Gen.(
      triple (int_range 0 100_000) (int_range 1 20) (float_range 0.0 1.0))

let build_req (seed, n, density) =
  let rng = Netsim.Rng.create seed in
  (rng, Matching.Request.random ~rng ~n ~density)

(* ------------------------------------------------------------------ *)
(* Request *)

let test_request_basics () =
  let r = Matching.Request.create 4 in
  Alcotest.(check int) "empty count" 0 (Matching.Request.request_count r);
  Matching.Request.set r 1 2 true;
  Alcotest.(check bool) "get" true (Matching.Request.get r 1 2);
  Alcotest.(check int) "count" 1 (Matching.Request.request_count r);
  let c = Matching.Request.copy r in
  Matching.Request.set r 1 2 false;
  Alcotest.(check bool) "copy unaffected" true (Matching.Request.get c 1 2)

let test_request_full () =
  let r = Matching.Request.full 5 in
  Alcotest.(check int) "full count" 25 (Matching.Request.request_count r)

let test_request_not_square () =
  Alcotest.(check bool) "rejects ragged" true
    (try
       ignore (Matching.Request.of_matrix [| [| true |]; [| true; false |] |]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Outcome *)

let test_outcome_add_pair () =
  let m = Matching.Outcome.empty 4 in
  Matching.Outcome.add_pair m ~input:0 ~output:2;
  Alcotest.(check int) "pairs" 1 (Matching.Outcome.pairs m);
  Alcotest.(check bool) "input busy raises" true
    (try Matching.Outcome.add_pair m ~input:0 ~output:3; false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "output busy raises" true
    (try Matching.Outcome.add_pair m ~input:1 ~output:2; false
     with Invalid_argument _ -> true)

let test_outcome_legality () =
  let r = Matching.Request.create 2 in
  Matching.Request.set r 0 1 true;
  let m = Matching.Outcome.empty 2 in
  Alcotest.(check bool) "empty legal" true (Matching.Outcome.is_legal r m);
  Alcotest.(check bool) "empty not maximal" false (Matching.Outcome.is_maximal r m);
  Matching.Outcome.add_pair m ~input:0 ~output:1;
  Alcotest.(check bool) "legal" true (Matching.Outcome.is_legal r m);
  Alcotest.(check bool) "maximal" true (Matching.Outcome.is_maximal r m);
  (* a pair that was never requested is illegal *)
  let m2 = Matching.Outcome.empty 2 in
  Matching.Outcome.add_pair m2 ~input:0 ~output:0;
  Alcotest.(check bool) "unrequested illegal" false (Matching.Outcome.is_legal r m2)

(* ------------------------------------------------------------------ *)
(* PIM *)

let test_pim_legal =
  qtest "pim outcome legal" req_gen (fun params ->
      let rng, req = build_req params in
      Matching.Outcome.is_legal req (Matching.Pim.run ~rng req ~iterations:3))

let test_pim_enough_iterations_maximal =
  qtest "pim maximal after n iterations" req_gen (fun params ->
      let rng, req = build_req params in
      let m = Matching.Pim.run ~rng req ~iterations:req.Matching.Request.n in
      Matching.Outcome.is_maximal req m)

let test_pim_iterations_to_maximal_sound =
  qtest "iterations_to_maximal terminates small" req_gen (fun params ->
      let rng, req = build_req params in
      let k = Matching.Pim.iterations_to_maximal ~rng req in
      k >= 0 && k <= req.Matching.Request.n)

let test_pim_empty_request () =
  let rng = Netsim.Rng.create 1 in
  let req = Matching.Request.create 8 in
  Alcotest.(check int) "no work, zero iterations" 0
    (Matching.Pim.iterations_to_maximal ~rng req);
  let m = Matching.Pim.run ~rng req ~iterations:3 in
  Alcotest.(check int) "no pairs" 0 (Matching.Outcome.pairs m)

let test_pim_permutation_one_iteration () =
  (* A permutation request pattern has no contention: one round
     suffices. *)
  let rng = Netsim.Rng.create 2 in
  let n = 8 in
  let req = Matching.Request.create n in
  for i = 0 to n - 1 do
    Matching.Request.set req i ((i + 3) mod n) true
  done;
  Alcotest.(check int) "one iteration" 1 (Matching.Pim.iterations_to_maximal ~rng req);
  let m = Matching.Pim.run ~rng req ~iterations:1 in
  Alcotest.(check int) "all matched" n (Matching.Outcome.pairs m)

let test_pim_full_matches_all () =
  let rng = Netsim.Rng.create 3 in
  let n = 16 in
  let m = Matching.Pim.run ~rng (Matching.Request.full n) ~iterations:n in
  Alcotest.(check int) "perfect" n (Matching.Outcome.pairs m)

let test_pim_average_bound () =
  (* Paper: E[iterations to maximal] <= log2 N + 4/3 = 5.32 at N=16,
     for any arrival pattern. Check on a hard (dense) pattern. *)
  let rng = Netsim.Rng.create 4 in
  let trials = 3000 in
  let sum = ref 0 in
  for _ = 1 to trials do
    let req = Matching.Request.random ~rng ~n:16 ~density:0.8 in
    sum := !sum + Matching.Pim.iterations_to_maximal ~rng req
  done;
  let avg = float_of_int !sum /. float_of_int trials in
  Alcotest.(check bool) (Printf.sprintf "avg %.2f <= 5.32" avg) true (avg <= 5.32)

let test_pim_four_iterations_98pct () =
  (* Paper: a maximal match within 4 iterations more than 98% of the
     time (simulation claim). Allow slack for sampling noise. *)
  let rng = Netsim.Rng.create 5 in
  let trials = 3000 in
  let within = ref 0 in
  for _ = 1 to trials do
    let req = Matching.Request.random ~rng ~n:16 ~density:0.8 in
    if Matching.Pim.iterations_to_maximal ~rng req <= 4 then incr within
  done;
  let frac = float_of_int !within /. float_of_int trials in
  Alcotest.(check bool) (Printf.sprintf "%.3f >= 0.96" frac) true (frac >= 0.96)

let test_pim_progress_per_round () =
  (* One iteration must match at least one pair whenever any request
     exists. *)
  let rng = Netsim.Rng.create 6 in
  for _ = 1 to 100 do
    let req = Matching.Request.random ~rng ~n:8 ~density:0.3 in
    let m = Matching.Pim.run ~rng req ~iterations:1 in
    if Matching.Request.request_count req > 0 then
      Alcotest.(check bool) "at least one pair" true (Matching.Outcome.pairs m >= 1)
  done

let test_pim_rejects_zero_iterations () =
  let rng = Netsim.Rng.create 7 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Matching.Pim.run ~rng (Matching.Request.full 4) ~iterations:0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Distributed PIM *)

let test_dpim_legal =
  qtest "distributed pim legal" req_gen (fun params ->
      let rng, req = build_req params in
      let o = Matching.Pim_distributed.run ~rng req ~iterations:3 in
      Matching.Outcome.is_legal req o.matching)

let test_dpim_maximal_with_n_iterations =
  qtest "distributed pim maximal after n rounds" req_gen (fun params ->
      let rng, req = build_req params in
      let o =
        Matching.Pim_distributed.run ~rng req ~iterations:req.Matching.Request.n
      in
      Matching.Outcome.is_maximal req o.matching)

let test_dpim_timing () =
  let t = Matching.Pim_distributed.default_timing in
  (* 3 wires + 2 logic = 15 + 80 = 95 ns per round. *)
  Alcotest.(check int) "iteration time" 95
    (Matching.Pim_distributed.iteration_time t);
  Alcotest.(check bool) "3 rounds fit a 500ns slot (paper design point)" true
    (Matching.Pim_distributed.fits_slot t ~iterations:3 ~slot:500);
  Alcotest.(check bool) "6 rounds do not" false
    (Matching.Pim_distributed.fits_slot t ~iterations:6 ~slot:500)

let test_dpim_elapsed_matches_rounds () =
  let rng = Netsim.Rng.create 9 in
  let req = Matching.Request.full 8 in
  let o = Matching.Pim_distributed.run ~rng req ~iterations:3 in
  let per_round =
    Matching.Pim_distributed.iteration_time
      Matching.Pim_distributed.default_timing
  in
  Alcotest.(check int) "3 full rounds" (3 * per_round) o.elapsed

let test_dpim_early_stop () =
  (* A permutation pattern finishes in one productive round; the
     second round adds nothing, so the protocol stops. *)
  let rng = Netsim.Rng.create 10 in
  let n = 8 in
  let req = Matching.Request.create n in
  for i = 0 to n - 1 do
    Matching.Request.set req i ((i + 1) mod n) true
  done;
  let o = Matching.Pim_distributed.run ~rng req ~iterations:8 in
  Alcotest.(check int) "all matched" n (Matching.Outcome.pairs o.matching);
  let per_round =
    Matching.Pim_distributed.iteration_time
      Matching.Pim_distributed.default_timing
  in
  Alcotest.(check int) "stopped after two rounds" (2 * per_round) o.elapsed

(* ------------------------------------------------------------------ *)
(* Greedy *)

let test_greedy_maximal =
  qtest "greedy always maximal" req_gen (fun params ->
      let rng, req = build_req params in
      let m = Matching.Greedy.run ~rng req in
      Matching.Outcome.is_maximal req m)

let test_greedy_deterministic_without_rng () =
  let req = Matching.Request.full 4 in
  let a = Matching.Greedy.run req and b = Matching.Greedy.run req in
  Alcotest.(check (array int)) "same outcome"
    a.Matching.Outcome.match_of_input b.Matching.Outcome.match_of_input;
  (* in-order greedy on full requests pairs i with i *)
  Alcotest.(check (array int)) "diagonal" [| 0; 1; 2; 3 |]
    a.Matching.Outcome.match_of_input

(* ------------------------------------------------------------------ *)
(* Hopcroft-Karp *)

(* Brute-force maximum matching size for small n. *)
let brute_force_max req =
  let n = req.Matching.Request.n in
  let used = Array.make n false in
  let rec go i =
    if i = n then 0
    else begin
      let best = ref (go (i + 1)) in
      for o = 0 to n - 1 do
        if Matching.Request.get req i o && not used.(o) then begin
          used.(o) <- true;
          let v = 1 + go (i + 1) in
          if v > !best then best := v;
          used.(o) <- false
        end
      done;
      !best
    end
  in
  go 0

let small_req_gen =
  QCheck.make
    ~print:(fun (seed, density) -> Printf.sprintf "seed=%d density=%.2f" seed density)
    QCheck.Gen.(pair (int_range 0 100_000) (float_range 0.0 1.0))

let test_hk_is_maximum =
  qtest ~count:300 "hopcroft-karp equals brute force (n<=6)" small_req_gen
    (fun (seed, density) ->
      let rng = Netsim.Rng.create seed in
      let n = 1 + Netsim.Rng.int rng 6 in
      let req = Matching.Request.random ~rng ~n ~density in
      Matching.Hopcroft_karp.size req = brute_force_max req)

let test_hk_legal_and_dominates =
  qtest "maximum >= any maximal" req_gen (fun params ->
      let rng, req = build_req params in
      let hk = Matching.Hopcroft_karp.run req in
      let pim = Matching.Pim.run ~rng req ~iterations:req.Matching.Request.n in
      Matching.Outcome.is_legal req hk
      && Matching.Outcome.pairs hk >= Matching.Outcome.pairs pim)

let test_hk_perfect_on_full () =
  Alcotest.(check int) "full 8" 8 (Matching.Hopcroft_karp.size (Matching.Request.full 8))

let test_hk_known_case () =
  (* inputs 0 -> {0,1}, 1 -> {0}: a naive pairing 0->0 leaves 1
     unmatched; the maximum (0->1, 1->0) has size 2. *)
  let req = Matching.Request.create 2 in
  Matching.Request.set req 0 0 true;
  Matching.Request.set req 0 1 true;
  Matching.Request.set req 1 0 true;
  Alcotest.(check int) "augments" 2 (Matching.Hopcroft_karp.size req)

(* ------------------------------------------------------------------ *)
(* iSLIP *)

let test_islip_legal =
  qtest "islip outcome legal" req_gen (fun params ->
      let _, req = build_req params in
      let st = Matching.Islip.create req.Matching.Request.n in
      Matching.Outcome.is_legal req (Matching.Islip.run st req ~iterations:3))

let test_islip_full_load_desynchronizes () =
  (* Classic iSLIP property: under full backlog, pointers desynchronize
     and a single iteration reaches 100% throughput after a short
     transient. *)
  let n = 8 in
  let st = Matching.Islip.create n in
  let req = Matching.Request.full n in
  let warmup = 4 * n in
  for _ = 1 to warmup do
    ignore (Matching.Islip.run st req ~iterations:1)
  done;
  for _ = 1 to 20 do
    let m = Matching.Islip.run st req ~iterations:1 in
    Alcotest.(check int) "full slots" n (Matching.Outcome.pairs m)
  done

let test_islip_maximal_with_n_iterations =
  qtest "islip maximal given n iterations" req_gen (fun params ->
      let _, req = build_req params in
      let st = Matching.Islip.create req.Matching.Request.n in
      let m = Matching.Islip.run st req ~iterations:req.Matching.Request.n in
      Matching.Outcome.is_maximal req m)

let test_islip_size_mismatch () =
  let st = Matching.Islip.create 4 in
  Alcotest.(check bool) "rejects" true
    (try ignore (Matching.Islip.run st (Matching.Request.full 5) ~iterations:1); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Differential: bitset kernels vs the list-based reference.

   The production kernels work on word-level bitsets; [Reference]
   keeps the original list-based forms as the executable spec. For the
   same request matrix and the same RNG stream the two must agree
   bit-for-bit — same pairs AND same number of draws consumed, which
   the trailing [Rng.int] probe checks. *)

let same_outcome a b =
  a.Matching.Outcome.match_of_input = b.Matching.Outcome.match_of_input
  && a.Matching.Outcome.match_of_output = b.Matching.Outcome.match_of_output

let diff_gen =
  QCheck.make
    ~print:(fun (seed, n, density) ->
      Printf.sprintf "seed=%d n=%d density=%.2f" seed n density)
    QCheck.Gen.(
      triple (int_range 0 100_000) (oneofl [ 4; 8; 16; 32 ]) (float_range 0.0 1.0))

let diff_req (seed, n, density) =
  Matching.Request.random ~rng:(Netsim.Rng.create (seed + 7919)) ~n ~density

let same_stream a b = Netsim.Rng.int a 1_000_003 = Netsim.Rng.int b 1_000_003

let test_pim_matches_reference =
  qtest ~count:300 "pim = reference, same stream" diff_gen (fun params ->
      let seed, _, _ = params in
      let req = diff_req params in
      let ra = Netsim.Rng.create seed and rb = Netsim.Rng.create seed in
      same_outcome
        (Matching.Pim.run ~rng:ra req ~iterations:3)
        (Oracle.Matching_reference.Pim.run ~rng:rb req ~iterations:3)
      && same_stream ra rb)

let test_pim_iterations_match_reference =
  qtest ~count:200 "pim iterations_to_maximal = reference" diff_gen (fun params ->
      let seed, _, _ = params in
      let req = diff_req params in
      let ra = Netsim.Rng.create seed and rb = Netsim.Rng.create seed in
      Matching.Pim.iterations_to_maximal ~rng:ra req
      = Oracle.Matching_reference.Pim.iterations_to_maximal ~rng:rb req
      && same_stream ra rb)

let test_islip_matches_reference =
  qtest ~count:200 "islip = reference across a request sequence" diff_gen
    (fun (seed, n, density) ->
      (* The round-robin pointers persist across slots, so agreement on
         a single matching is not enough: run both schedulers through
         the same five-request sequence and require agreement at every
         step. *)
      let rng = Netsim.Rng.create seed in
      let st = Matching.Islip.create n in
      let st_ref = Oracle.Matching_reference.Islip.create n in
      let ok = ref true in
      for _ = 1 to 5 do
        let req = Matching.Request.random ~rng ~n ~density in
        let a = Matching.Islip.run st req ~iterations:2 in
        let b = Oracle.Matching_reference.Islip.run st_ref req ~iterations:2 in
        if not (same_outcome a b) then ok := false
      done;
      !ok)

let test_greedy_matches_reference =
  qtest ~count:300 "greedy = reference, with and without rng" diff_gen
    (fun params ->
      let seed, _, _ = params in
      let req = diff_req params in
      let ra = Netsim.Rng.create seed and rb = Netsim.Rng.create seed in
      same_outcome
        (Matching.Greedy.run ~rng:ra req)
        (Oracle.Matching_reference.Greedy.run ~rng:rb req)
      && same_stream ra rb
      && same_outcome (Matching.Greedy.run req) (Oracle.Matching_reference.Greedy.run req))

let test_hk_matches_reference =
  qtest ~count:300 "hopcroft-karp = reference" diff_gen (fun params ->
      let req = diff_req params in
      same_outcome
        (Matching.Hopcroft_karp.run req)
        (Oracle.Matching_reference.Hopcroft_karp.run req))

let () =
  Alcotest.run "matching"
    [
      ( "request",
        [
          Alcotest.test_case "basics" `Quick test_request_basics;
          Alcotest.test_case "full" `Quick test_request_full;
          Alcotest.test_case "not square" `Quick test_request_not_square;
        ] );
      ( "outcome",
        [
          Alcotest.test_case "add_pair" `Quick test_outcome_add_pair;
          Alcotest.test_case "legality" `Quick test_outcome_legality;
        ] );
      ( "pim",
        [
          test_pim_legal;
          test_pim_enough_iterations_maximal;
          test_pim_iterations_to_maximal_sound;
          Alcotest.test_case "empty request" `Quick test_pim_empty_request;
          Alcotest.test_case "permutation 1 iter" `Quick
            test_pim_permutation_one_iteration;
          Alcotest.test_case "full matches all" `Quick test_pim_full_matches_all;
          Alcotest.test_case "average bound (paper)" `Slow test_pim_average_bound;
          Alcotest.test_case "98% within 4 (paper)" `Slow
            test_pim_four_iterations_98pct;
          Alcotest.test_case "progress per round" `Quick test_pim_progress_per_round;
          Alcotest.test_case "rejects 0 iterations" `Quick
            test_pim_rejects_zero_iterations;
        ] );
      ( "pim-distributed",
        [
          test_dpim_legal;
          test_dpim_maximal_with_n_iterations;
          Alcotest.test_case "timing budget (paper)" `Quick test_dpim_timing;
          Alcotest.test_case "elapsed = rounds" `Quick
            test_dpim_elapsed_matches_rounds;
          Alcotest.test_case "early stop" `Quick test_dpim_early_stop;
        ] );
      ( "greedy",
        [
          test_greedy_maximal;
          Alcotest.test_case "deterministic" `Quick
            test_greedy_deterministic_without_rng;
        ] );
      ( "hopcroft-karp",
        [
          test_hk_is_maximum;
          test_hk_legal_and_dominates;
          Alcotest.test_case "perfect on full" `Quick test_hk_perfect_on_full;
          Alcotest.test_case "augmenting path" `Quick test_hk_known_case;
        ] );
      ( "islip",
        [
          test_islip_legal;
          Alcotest.test_case "desynchronizes" `Quick
            test_islip_full_load_desynchronizes;
          test_islip_maximal_with_n_iterations;
          Alcotest.test_case "size mismatch" `Quick test_islip_size_mismatch;
        ] );
      ( "reference-differential",
        [
          test_pim_matches_reference;
          test_pim_iterations_match_reference;
          test_islip_matches_reference;
          test_greedy_matches_reference;
          test_hk_matches_reference;
        ] );
    ]
