(* Tests for guaranteed-traffic frame scheduling: reservation matrices,
   the Slepian-Duguid insertion algorithm, the paper's Figures 2/3, and
   the slot-packing heuristics. *)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let matrix_gen =
  QCheck.make
    ~print:(fun (seed, n, frame, fill) ->
      Printf.sprintf "seed=%d n=%d frame=%d fill=%.2f" seed n frame fill)
    QCheck.Gen.(
      quad (int_range 0 100_000) (int_range 1 12) (int_range 1 16)
        (float_range 0.0 1.0))

let build_matrix (seed, n, frame, fill) =
  let rng = Netsim.Rng.create seed in
  (Frame.Reservation.random_admissible ~rng ~n ~frame ~fill, n, frame)

let matrices_equal a b =
  let n = a.Frame.Reservation.n in
  let same = ref (n = b.Frame.Reservation.n) in
  for i = 0 to n - 1 do
    for o = 0 to n - 1 do
      if Frame.Reservation.get a i o <> Frame.Reservation.get b i o then same := false
    done
  done;
  !same

(* ------------------------------------------------------------------ *)
(* Reservation *)

let test_reservation_sums () =
  let r = Frame.Reservation.paper_figure2 () in
  Alcotest.(check int) "row 1" 3 (Frame.Reservation.row_sum r 0);
  Alcotest.(check int) "row 2" 2 (Frame.Reservation.row_sum r 1);
  Alcotest.(check int) "row 3" 3 (Frame.Reservation.row_sum r 2);
  Alcotest.(check int) "row 4" 2 (Frame.Reservation.row_sum r 3);
  Alcotest.(check int) "col 1" 3 (Frame.Reservation.col_sum r 0);
  Alcotest.(check int) "col 2" 3 (Frame.Reservation.col_sum r 1);
  Alcotest.(check int) "col 3" 2 (Frame.Reservation.col_sum r 2);
  Alcotest.(check int) "col 4" 2 (Frame.Reservation.col_sum r 3);
  Alcotest.(check int) "total" 10 (Frame.Reservation.total r)

let test_reservation_admissibility_edge () =
  let r = Frame.Reservation.paper_figure2 () in
  Alcotest.(check bool) "3 slots enough" true (Frame.Reservation.admissible r ~frame:3);
  Alcotest.(check bool) "2 slots too few" false
    (Frame.Reservation.admissible r ~frame:2)

let test_reservation_headroom () =
  let r = Frame.Reservation.paper_figure2 () in
  (* row 4 sum 2, col 3 sum 2 -> headroom 1 in a 3-slot frame *)
  Alcotest.(check int) "headroom" 1
    (Frame.Reservation.headroom r ~frame:3 ~input:3 ~output:2);
  Alcotest.(check int) "saturated" 0
    (Frame.Reservation.headroom r ~frame:3 ~input:0 ~output:1)

let test_random_admissible =
  qtest "random matrices admissible" matrix_gen (fun params ->
      let r, _, frame = build_matrix params in
      Frame.Reservation.admissible r ~frame)

(* ------------------------------------------------------------------ *)
(* Schedule *)

let test_schedule_place_and_lookup () =
  let s = Frame.Schedule.create ~n:4 ~frame:2 in
  Frame.Schedule.place s ~slot:0 ~input:1 ~output:3;
  Alcotest.(check (option int)) "output_of" (Some 3)
    (Frame.Schedule.output_of s ~slot:0 ~input:1);
  Alcotest.(check (option int)) "input_of" (Some 1)
    (Frame.Schedule.input_of s ~slot:0 ~output:3);
  Alcotest.(check bool) "input busy" false (Frame.Schedule.input_free s ~slot:0 ~input:1);
  Alcotest.(check bool) "other slot free" true
    (Frame.Schedule.input_free s ~slot:1 ~input:1);
  Alcotest.(check bool) "valid" true (Frame.Schedule.valid s)

let test_schedule_place_conflicts () =
  let s = Frame.Schedule.create ~n:4 ~frame:1 in
  Frame.Schedule.place s ~slot:0 ~input:0 ~output:0;
  Alcotest.(check bool) "input conflict" true
    (try Frame.Schedule.place s ~slot:0 ~input:0 ~output:1; false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "output conflict" true
    (try Frame.Schedule.place s ~slot:0 ~input:1 ~output:0; false
     with Invalid_argument _ -> true)

let test_add_cell_direct () =
  let s = Frame.Schedule.create ~n:4 ~frame:2 in
  match Frame.Schedule.add_cell s ~input:2 ~output:3 with
  | Ok { steps; moves } ->
    Alcotest.(check int) "one step" 1 steps;
    Alcotest.(check int) "no moves" 0 (List.length moves);
    Alcotest.(check int) "placed" 1 (Frame.Schedule.reserved_count s ~input:2 ~output:3)
  | Error e -> Alcotest.fail e

let test_add_cell_inadmissible () =
  let s = Frame.Schedule.create ~n:2 ~frame:1 in
  Frame.Schedule.place s ~slot:0 ~input:0 ~output:1;
  (* input 0 fully committed *)
  match Frame.Schedule.add_cell s ~input:0 ~output:0 with
  | Ok _ -> Alcotest.fail "must fail"
  | Error _ -> ()

let test_sd_random_build =
  qtest "SD builds any admissible matrix" matrix_gen (fun params ->
      let r, n, frame = build_matrix params in
      let s = Frame.Schedule.create ~n ~frame in
      let ok = ref true in
      for i = 0 to n - 1 do
        for o = 0 to n - 1 do
          match
            Frame.Schedule.add_reservation s ~input:i ~output:o
              ~cells:(Frame.Reservation.get r i o)
          with
          | Ok _ -> ()
          | Error _ -> ok := false
        done
      done;
      !ok
      && Frame.Schedule.valid s
      && matrices_equal (Frame.Schedule.to_reservation s) r)

let test_sd_step_bound =
  qtest "SD insertion bounded by N paper-steps" matrix_gen (fun params ->
      let r, n, frame = build_matrix params in
      let s = Frame.Schedule.create ~n ~frame in
      let worst_pairs = ref 0 and worst_placements = ref 0 in
      let ok = ref true in
      for i = 0 to n - 1 do
        for o = 0 to n - 1 do
          for _ = 1 to Frame.Reservation.get r i o do
            match Frame.Schedule.add_cell s ~input:i ~output:o with
            | Ok outcome ->
              (* The paper counts the initial placement plus one step
                 per displacement pair (Figure 3) and bounds that by
                 N; each pair is two of our placements, so placements
                 stay within 2N. *)
              let pairs = Frame.Figures.paper_steps outcome in
              if pairs > !worst_pairs then worst_pairs := pairs;
              if outcome.steps > !worst_placements then
                worst_placements := outcome.steps
            | Error _ -> ok := false
          done
        done
      done;
      !ok && !worst_pairs <= n && !worst_placements <= 2 * n)

let test_remove_cell () =
  let s = Frame.Schedule.create ~n:4 ~frame:2 in
  ignore (Frame.Schedule.add_reservation s ~input:1 ~output:2 ~cells:2);
  Alcotest.(check int) "two scheduled" 2
    (Frame.Schedule.reserved_count s ~input:1 ~output:2);
  Alcotest.(check bool) "removed" true (Frame.Schedule.remove_cell s ~input:1 ~output:2);
  Alcotest.(check int) "one left" 1 (Frame.Schedule.reserved_count s ~input:1 ~output:2);
  Alcotest.(check bool) "valid" true (Frame.Schedule.valid s);
  ignore (Frame.Schedule.remove_cell s ~input:1 ~output:2);
  Alcotest.(check bool) "nothing left to remove" false
    (Frame.Schedule.remove_cell s ~input:1 ~output:2)

let test_add_after_remove () =
  (* Freed capacity is reusable. *)
  let s = Frame.Schedule.create ~n:2 ~frame:1 in
  Frame.Schedule.place s ~slot:0 ~input:0 ~output:1;
  ignore (Frame.Schedule.remove_cell s ~input:0 ~output:1);
  match Frame.Schedule.add_cell s ~input:0 ~output:0 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_copy_isolated () =
  let s = Frame.Schedule.create ~n:2 ~frame:1 in
  let c = Frame.Schedule.copy s in
  Frame.Schedule.place s ~slot:0 ~input:0 ~output:1;
  Alcotest.(check bool) "copy untouched" true
    (Frame.Schedule.input_free c ~slot:0 ~input:0)

(* Differential: the flat schedule against the nested-array model in
   Oracle.Schedule_reference. [Remove_nth k] removes a cell of the
   pair found at the k-th busy (slot, input) of the model, so removals
   hit pairs that hold several cells, where the choice of slot shows. *)

module Ref = Oracle.Schedule_reference

type sched_op =
  | Place of int * int * int
  | Add of int * int
  | Remove of int * int
  | Remove_nth of int

let pp_sched_op = function
  | Place (s, i, o) -> Printf.sprintf "place %d %d->%d" s i o
  | Add (i, o) -> Printf.sprintf "add %d->%d" i o
  | Remove (i, o) -> Printf.sprintf "remove %d->%d" i o
  | Remove_nth k -> Printf.sprintf "remove#%d" k

let sched_case_gen =
  QCheck.make
    ~print:(fun (n, frame, prefill, ops) ->
      Printf.sprintf "n=%d frame=%d prefill=%.2f ops=[%s]" n frame prefill
        (String.concat "; " (List.map pp_sched_op ops)))
    QCheck.Gen.(
      int_range 1 20 >>= fun n ->
      (* Busy words hold 63 slots: frames on both sides of one and two
         word boundaries. *)
      frequency [ (3, int_range 1 64); (1, oneofl [ 62; 63; 64; 125; 126; 127; 189 ]) ]
      >>= fun frame ->
      let port = int_range 0 (n - 1) in
      let op =
        frequency
          [
            (2, map3 (fun s i o -> Place (s, i, o)) (int_range 0 (frame - 1)) port port);
            (4, map2 (fun i o -> Add (i, o)) port port);
            (1, map2 (fun i o -> Remove (i, o)) port port);
            (3, map (fun k -> Remove_nth k) (int_range 0 10_000));
          ]
      in
      quad (return n) (return frame)
        (oneof [ return 0.0; float_range 0.5 1.0 ])
        (list_size (int_range 0 80) op))

let schedules_agree s r =
  let n = Frame.Schedule.n s and frame = Frame.Schedule.frame s in
  let ok = ref (Frame.Schedule.valid s) in
  for slot = 0 to frame - 1 do
    for p = 0 to n - 1 do
      if Frame.Schedule.output_at s ~slot ~input:p <> Ref.output_at r ~slot ~input:p
         || Frame.Schedule.input_of s ~slot ~output:p <> Ref.input_of r ~slot ~output:p
      then ok := false
    done
  done;
  !ok

let same_add a b =
  match (a, b) with
  | Ok { Frame.Schedule.steps; moves }, Ok { Ref.steps = steps'; moves = moves' } ->
    steps = steps' && moves = moves'
  | Error e, Error e' -> e = e'
  | _ -> false

let outcome f = match f () with () -> None | exception Invalid_argument m -> Some m

let test_schedule_matches_reference =
  qtest ~count:300 "flat schedule = nested-array reference" sched_case_gen
    (fun (n, frame, prefill, ops) ->
      let s = Frame.Schedule.create ~n ~frame and r = Ref.create ~n ~frame in
      let ok = ref true in
      let check b = if not b then ok := false in
      (* Pre-fill from an admissible matrix, one add_cell at a time. *)
      let rng = Netsim.Rng.create (n + (64 * frame)) in
      let m = Frame.Reservation.random_admissible ~rng ~n ~frame ~fill:prefill in
      for i = 0 to n - 1 do
        for o = 0 to n - 1 do
          for _ = 1 to Frame.Reservation.get m i o do
            check
              (same_add
                 (Frame.Schedule.add_cell s ~input:i ~output:o)
                 (Ref.add_cell r ~input:i ~output:o))
          done
        done
      done;
      check (schedules_agree s r);
      let busy_pairs () =
        let acc = ref [] in
        for slot = frame - 1 downto 0 do
          for i = n - 1 downto 0 do
            match Ref.output_of r ~slot ~input:i with
            | Some o -> acc := (i, o) :: !acc
            | None -> ()
          done
        done;
        Array.of_list !acc
      in
      List.iter
        (fun op ->
          (match op with
           | Place (slot, input, output) ->
             check
               (outcome (fun () -> Frame.Schedule.place s ~slot ~input ~output)
               = outcome (fun () -> Ref.place r ~slot ~input ~output))
           | Add (input, output) ->
             check
               (same_add
                  (Frame.Schedule.add_cell s ~input ~output)
                  (Ref.add_cell r ~input ~output))
           | Remove (input, output) ->
             check
               (Frame.Schedule.remove_cell s ~input ~output
               = Ref.remove_cell r ~input ~output)
           | Remove_nth k ->
             let pairs = busy_pairs () in
             if Array.length pairs > 0 then begin
               let input, output = pairs.(k mod Array.length pairs) in
               check
                 (Frame.Schedule.remove_cell s ~input ~output
                 = Ref.remove_cell r ~input ~output)
             end);
          check (schedules_agree s r))
        ops;
      !ok)

(* First fit allocates nothing: 1,000 insertions that each find a slot
   idle at both ports, so none needs a swap chain. *)
let test_first_fit_allocates_nothing () =
  let n = 16 in
  let s = Frame.Schedule.create ~n ~frame:1024 in
  ignore (Frame.Schedule.add_cell s ~input:0 ~output:0);
  let w0 = Gc.minor_words () in
  for k = 1 to 1000 do
    match Frame.Schedule.add_cell s ~input:(k mod n) ~output:(k * 7 mod n) with
    | Ok { steps = 1; _ } -> ()
    | Ok _ | Error _ -> Alcotest.fail "needed a swap chain"
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "minor words" 0.0 words;
  Alcotest.(check bool) "valid" true (Frame.Schedule.valid s)

let test_schedule_range_checked () =
  let s = Frame.Schedule.create ~n:3 ~frame:4 in
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  (* With flat rows, input 3 of slot 0 would be input 0 of slot 1. *)
  raises "input = n" (fun () -> Frame.Schedule.place s ~slot:0 ~input:3 ~output:0);
  raises "output = n" (fun () -> Frame.Schedule.place s ~slot:0 ~input:0 ~output:3);
  raises "slot = frame" (fun () -> Frame.Schedule.place s ~slot:4 ~input:0 ~output:0);
  raises "negative input" (fun () -> Frame.Schedule.place s ~slot:1 ~input:(-1) ~output:0);
  Frame.Schedule.place s ~slot:0 ~input:0 ~output:0;
  raises "read past n" (fun () -> ignore (Frame.Schedule.output_at s ~slot:0 ~input:3));
  raises "remove past n" (fun () -> ignore (Frame.Schedule.remove_cell s ~input:0 ~output:3));
  raises "n > 65535" (fun () -> ignore (Frame.Schedule.create ~n:65536 ~frame:1));
  Alcotest.(check int) "one cell" 1 (Frame.Schedule.cell_count s);
  Alcotest.(check bool) "slot 1 untouched" true (Frame.Schedule.input_free s ~slot:1 ~input:0)

(* ------------------------------------------------------------------ *)
(* Figures 2 and 3 *)

let test_figure2_schedule_realizes_matrix () =
  let final = Frame.Figures.figure2_final_schedule () in
  Alcotest.(check bool) "valid" true (Frame.Schedule.valid final);
  Alcotest.(check bool) "realizes" true
    (matrices_equal (Frame.Schedule.to_reservation final)
       (Frame.Reservation.paper_figure2 ()))

let test_figure2_initial_lacks_43 () =
  let initial = Frame.Figures.figure2_initial_schedule () in
  Alcotest.(check int) "4->3 missing" 0
    (Frame.Schedule.reserved_count initial ~input:3 ~output:2)

let test_figure3_chain () =
  let final, outcome = Frame.Figures.run_figure3 () in
  Alcotest.(check int) "paper counts 3 steps" 3 (Frame.Figures.paper_steps outcome);
  Alcotest.(check int) "4 displacements" 4 (List.length outcome.Frame.Schedule.moves);
  Alcotest.(check bool) "valid" true (Frame.Schedule.valid final);
  (* Final p row: 1->2, 2->1, 3->4, 4->3 (paper step 3). *)
  Alcotest.(check (option int)) "p: 1->2" (Some 1)
    (Frame.Schedule.output_of final ~slot:0 ~input:0);
  Alcotest.(check (option int)) "p: 2->1" (Some 0)
    (Frame.Schedule.output_of final ~slot:0 ~input:1);
  Alcotest.(check (option int)) "p: 3->4" (Some 3)
    (Frame.Schedule.output_of final ~slot:0 ~input:2);
  Alcotest.(check (option int)) "p: 4->3" (Some 2)
    (Frame.Schedule.output_of final ~slot:0 ~input:3);
  (* Final q row: 1->3, 3->2, 4->1. *)
  Alcotest.(check (option int)) "q: 1->3" (Some 2)
    (Frame.Schedule.output_of final ~slot:1 ~input:0);
  Alcotest.(check (option int)) "q: 3->2" (Some 1)
    (Frame.Schedule.output_of final ~slot:1 ~input:2);
  Alcotest.(check (option int)) "q: 4->1" (Some 0)
    (Frame.Schedule.output_of final ~slot:1 ~input:3)

let test_figure3_first_move_is_1_to_3 () =
  (* The chain starts by displacing 1->3 from p to q, as in the
     paper's step 2. *)
  let _, outcome = Frame.Figures.run_figure3 () in
  match outcome.Frame.Schedule.moves with
  | (from_slot, to_slot, 0, 2) :: _ ->
    Alcotest.(check int) "from p" 0 from_slot;
    Alcotest.(check int) "to q" 1 to_slot
  | _ -> Alcotest.fail "unexpected first move"

let test_figure2_full_schedule_direct_insert () =
  (* In the full 3-slot schedule the middle slot has both ends free, so
     insertion is direct (the subtlety the paper's prose skips). *)
  let s = Frame.Figures.figure2_initial_schedule () in
  match Frame.Schedule.add_cell s ~input:3 ~output:2 with
  | Ok { steps; _ } -> Alcotest.(check int) "direct" 1 steps
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Packing *)

let test_builders_realize =
  qtest ~count:60 "packing builders realize matrix" matrix_gen (fun params ->
      let r, _, frame = build_matrix params in
      List.for_all
        (fun build ->
          let s = build r ~frame in
          Frame.Schedule.valid s
          && matrices_equal (Frame.Schedule.to_reservation s) r)
        [ Frame.Packing.build_packed; Frame.Packing.build_spread; Frame.Packing.build_sd ])

let test_packed_concentrates () =
  let rng = Netsim.Rng.create 51 in
  let r = Frame.Reservation.random_admissible ~rng ~n:8 ~frame:32 ~fill:0.3 in
  let packed = Frame.Packing.build_packed r ~frame:32 in
  let spread = Frame.Packing.build_spread r ~frame:32 in
  let mp = Frame.Packing.measure packed and ms = Frame.Packing.measure spread in
  Alcotest.(check bool) "packed frees more whole slots" true
    (mp.fully_free_slots >= ms.fully_free_slots);
  Alcotest.(check bool) "spread shortens worst wait" true
    (ms.mean_worst_wait <= mp.mean_worst_wait)

let test_measure_empty_schedule () =
  let s = Frame.Schedule.create ~n:4 ~frame:8 in
  let m = Frame.Packing.measure s in
  Alcotest.(check int) "all slots free" 8 m.fully_free_slots;
  Alcotest.(check (float 1e-9)) "every pair always free" 8.0 m.mean_free_per_pair;
  Alcotest.(check (float 1e-9)) "no wait" 0.0 m.mean_worst_wait

let test_measure_full_slot () =
  (* One slot fully reserved with a permutation: every pair loses
     exactly that slot. *)
  let s = Frame.Schedule.create ~n:4 ~frame:4 in
  for i = 0 to 3 do
    Frame.Schedule.place s ~slot:0 ~input:i ~output:i
  done;
  let m = Frame.Packing.measure s in
  Alcotest.(check int) "three fully free" 3 m.fully_free_slots;
  Alcotest.(check (float 1e-9)) "3 free slots per pair" 3.0 m.mean_free_per_pair;
  Alcotest.(check (float 1e-9)) "worst wait 1" 1.0 m.mean_worst_wait

let test_packing_rejects_inadmissible () =
  let r = Frame.Reservation.paper_figure2 () in
  Alcotest.(check bool) "frame 2 too small" true
    (try ignore (Frame.Packing.build_packed r ~frame:2); false
     with Failure _ -> true)

let test_figures_golden () =
  (* Byte-exact regression of the printed Figure 2/3 reproduction. *)
  let got = Format.asprintf "%t" (fun fmt -> Frame.Figures.report fmt) in
  let expected =
    "Reservations (cells per frame, Figure 2):\n\
    \  in1 | . 1 1 1\n\
    \  in2 | 2 . . .\n\
    \  in3 | . 2 . 1\n\
    \  in4 | 1 . 1 .\n\
     \n\
     Schedule before adding 4->3:\n\
    \  slot 1 | 1->3 2->1 3->2     \n\
    \  slot 2 | 1->4 2->1 3->2     \n\
    \  slot 3 | 1->2      3->4 4->1\n\
     \n\
     Insertion into the full schedule: 1 step(s) (direct placement;\n\
     the paper's prose overlooks that slot 2 has both ends free)\n\
     Schedule after direct insertion:\n\
    \  slot 1 | 1->3 2->1 3->2     \n\
    \  slot 2 | 1->4 2->1 3->2 4->3\n\
    \  slot 3 | 1->2      3->4 4->1\n\
     \n\
     valid: true; realizes Figure 2 matrix: true\n\
     \n\
     Figure 3 swap chain over slots p and q only:\n\
    \  slot 1 | 1->3 2->1 3->2     \n\
    \  slot 2 | 1->2      3->4 4->1\n\
     \n\
     Slepian-Duguid insertion of 4->3: 5 placements, 3 paper steps\n\
    \  moved 1->3 from slot p to slot q\n\
    \  moved 1->2 from slot q to slot p\n\
    \  moved 3->2 from slot p to slot q\n\
    \  moved 3->4 from slot q to slot p\n\
     Final p/q rows (paper's step 3):\n\
    \  slot 1 | 1->2 2->1 3->4 4->3\n\
    \  slot 2 | 1->3      3->2 4->1\n\
     \n\
     valid: true\n"
  in
  Alcotest.(check string) "golden report" expected got

(* ------------------------------------------------------------------ *)
(* Nested frames *)

let nested_gen =
  QCheck.make
    ~print:(fun (seed, n, sub, cap, fill) ->
      Printf.sprintf "seed=%d n=%d sub=%d cap=%d fill=%.2f" seed n sub cap fill)
    QCheck.Gen.(
      (int_range 0 100_000 >>= fun seed ->
       int_range 1 10 >>= fun n ->
       oneofl [ 1; 2; 4; 8 ] >>= fun sub ->
       int_range 1 8 >>= fun cap ->
       float_range 0.0 1.0 >>= fun fill -> return (seed, n, sub, cap, fill)))

let test_nested_realizes =
  qtest ~count:80 "nested schedules realize the matrix" nested_gen
    (fun (seed, n, sub, cap, fill) ->
      let frame = sub * cap in
      let rng = Netsim.Rng.create seed in
      let r = Frame.Reservation.random_admissible ~rng ~n ~frame ~fill in
      match Frame.Nested.build r ~frame ~subframes:sub with
      | Error _ -> false
      | Ok s ->
        Frame.Schedule.valid s
        && matrices_equal (Frame.Schedule.to_reservation s) r)

let test_nested_balanced =
  qtest ~count:80 "nested spreads each pair within 1 cell per subframe"
    nested_gen
    (fun (seed, n, sub, cap, fill) ->
      let frame = sub * cap in
      let rng = Netsim.Rng.create seed in
      let r = Frame.Reservation.random_admissible ~rng ~n ~frame ~fill in
      match Frame.Nested.build r ~frame ~subframes:sub with
      | Error _ -> false
      | Ok s ->
        let m = Frame.Nested.measure s ~subframes:sub in
        m.worst_subframe_imbalance <= 1)

let test_nested_full_permutation_load () =
  (* A fully loaded frame (every line committed) must still nest. *)
  let n = 4 and sub = 4 and cap = 4 in
  let frame = sub * cap in
  let r = Frame.Reservation.create n in
  (* each input sends frame cells split over two outputs *)
  for i = 0 to n - 1 do
    Frame.Reservation.set r i i (frame / 2);
    Frame.Reservation.set r i ((i + 1) mod n) (frame / 2)
  done;
  match Frame.Nested.build r ~frame ~subframes:sub with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check bool) "valid" true (Frame.Schedule.valid s);
    let m = Frame.Nested.measure s ~subframes:sub in
    Alcotest.(check int) "perfectly nested" 0 m.worst_subframe_imbalance

let test_nested_improves_gap () =
  (* The whole point: nesting shrinks the worst service gap compared to
     a plain (packed) SD schedule. Use multi-cell circuits - a one-cell
     circuit has a frame-sized gap under any schedule. *)
  let n = 8 and frame = 64 and sub = 8 in
  let r = Frame.Reservation.create n in
  for i = 0 to n - 1 do
    Frame.Reservation.set r i ((i + 1) mod n) 16;
    Frame.Reservation.set r i ((i + 3) mod n) 16
  done;
  let flat = Frame.Packing.build_sd r ~frame in
  match Frame.Nested.build r ~frame ~subframes:sub with
  | Error e -> Alcotest.fail e
  | Ok nested ->
    let gf = (Frame.Nested.measure flat ~subframes:sub).max_gap in
    let gn = (Frame.Nested.measure nested ~subframes:sub).max_gap in
    Alcotest.(check bool)
      (Printf.sprintf "nested gap %d < flat gap %d" gn gf)
      true (gn < gf);
    (* 16 cells over 8 subframes: two per subframe, so the wait is
       bounded by one reordering unit's length plus change. *)
    Alcotest.(check bool) "gap within 2 subframes" true (gn <= 2 * (frame / sub))

let test_nested_gap_bounded_by_two_subframes =
  qtest ~count:60 "pairs with >= subframes cells have gap <= 2 subframe lengths"
    nested_gen
    (fun (seed, n, sub, cap, fill) ->
      let frame = sub * cap in
      let rng = Netsim.Rng.create seed in
      let r = Frame.Reservation.random_admissible ~rng ~n ~frame ~fill in
      match Frame.Nested.build r ~frame ~subframes:sub with
      | Error _ -> false
      | Ok s ->
        (* A pair with at least one cell in every subframe can never
           wait more than two reordering units between cells. *)
        let ok = ref true in
        for i = 0 to n - 1 do
          for o = 0 to n - 1 do
            if Frame.Reservation.get r i o >= sub then begin
              let slots = ref [] in
              for slot = frame - 1 downto 0 do
                if Frame.Schedule.output_of s ~slot ~input:i = Some o then
                  slots := slot :: !slots
              done;
              match !slots with
              | [] -> ok := false
              | first :: _ as all ->
                let rec gaps = function
                  | [ last ] -> if frame - last + first > 2 * cap then ok := false
                  | a :: (b :: _ as rest) ->
                    if b - a > 2 * cap then ok := false;
                    gaps rest
                  | [] -> ()
                in
                gaps all
            end
          done
        done;
        !ok)

let test_nested_rejects_bad_division () =
  let r = Frame.Reservation.create 2 in
  Alcotest.(check bool) "non-divisor raises" true
    (try ignore (Frame.Nested.build r ~frame:10 ~subframes:3); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "non-power-of-two raises" true
    (try ignore (Frame.Nested.build r ~frame:12 ~subframes:6); false
     with Invalid_argument _ -> true)

let test_nested_rejects_inadmissible () =
  let r = Frame.Reservation.paper_figure2 () in
  match Frame.Nested.build r ~frame:2 ~subframes:2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "must reject"

let () =
  Alcotest.run "frame"
    [
      ( "reservation",
        [
          Alcotest.test_case "figure2 sums" `Quick test_reservation_sums;
          Alcotest.test_case "admissibility edge" `Quick
            test_reservation_admissibility_edge;
          Alcotest.test_case "headroom" `Quick test_reservation_headroom;
          test_random_admissible;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "place/lookup" `Quick test_schedule_place_and_lookup;
          Alcotest.test_case "place conflicts" `Quick test_schedule_place_conflicts;
          Alcotest.test_case "direct add" `Quick test_add_cell_direct;
          Alcotest.test_case "inadmissible add" `Quick test_add_cell_inadmissible;
          test_sd_random_build;
          test_sd_step_bound;
          Alcotest.test_case "remove cell" `Quick test_remove_cell;
          Alcotest.test_case "add after remove" `Quick test_add_after_remove;
          Alcotest.test_case "copy isolated" `Quick test_copy_isolated;
          test_schedule_matches_reference;
          Alcotest.test_case "first fit allocates nothing" `Quick
            test_first_fit_allocates_nothing;
          Alcotest.test_case "ports and slots range-checked" `Quick
            test_schedule_range_checked;
        ] );
      ( "figures",
        [
          Alcotest.test_case "figure 2 realized" `Quick
            test_figure2_schedule_realizes_matrix;
          Alcotest.test_case "initial lacks 4->3" `Quick test_figure2_initial_lacks_43;
          Alcotest.test_case "figure 3 chain" `Quick test_figure3_chain;
          Alcotest.test_case "first move 1->3" `Quick test_figure3_first_move_is_1_to_3;
          Alcotest.test_case "full schedule direct insert" `Quick
            test_figure2_full_schedule_direct_insert;
          Alcotest.test_case "golden report" `Quick test_figures_golden;
        ] );
      ( "nested",
        [
          test_nested_realizes;
          test_nested_balanced;
          Alcotest.test_case "full load nests" `Quick
            test_nested_full_permutation_load;
          Alcotest.test_case "improves worst gap" `Quick test_nested_improves_gap;
          test_nested_gap_bounded_by_two_subframes;
          Alcotest.test_case "rejects bad division" `Quick
            test_nested_rejects_bad_division;
          Alcotest.test_case "rejects inadmissible" `Quick
            test_nested_rejects_inadmissible;
        ] );
      ( "packing",
        [
          test_builders_realize;
          Alcotest.test_case "packed concentrates" `Quick test_packed_concentrates;
          Alcotest.test_case "empty schedule metrics" `Quick test_measure_empty_schedule;
          Alcotest.test_case "full slot metrics" `Quick test_measure_full_slot;
          Alcotest.test_case "rejects inadmissible" `Quick
            test_packing_rejects_inadmissible;
        ] );
    ]
