(* Tests for the simulation substrate: RNG, heap, engine, statistics. *)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Netsim.Rng.create 42 and b = Netsim.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Netsim.Rng.bits64 a) (Netsim.Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Netsim.Rng.create 1 and b = Netsim.Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 16 do
    if Netsim.Rng.bits64 a <> Netsim.Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_rng_copy_replays () =
  let a = Netsim.Rng.create 7 in
  ignore (Netsim.Rng.bits64 a);
  let b = Netsim.Rng.copy a in
  for _ = 1 to 50 do
    Alcotest.(check int64) "copy replays" (Netsim.Rng.bits64 a) (Netsim.Rng.bits64 b)
  done

let test_rng_split_independent () =
  (* Drawing from the split stream must not perturb the parent. *)
  let a = Netsim.Rng.create 9 in
  let a' = Netsim.Rng.copy a in
  let child = Netsim.Rng.split a in
  let child' = Netsim.Rng.split a' in
  for _ = 1 to 20 do
    ignore (Netsim.Rng.bits64 child)
  done;
  ignore child';
  for _ = 1 to 20 do
    Alcotest.(check int64) "parent unaffected" (Netsim.Rng.bits64 a)
      (Netsim.Rng.bits64 a')
  done

let test_rng_int_bounds =
  qtest "Rng.int in bounds"
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Netsim.Rng.create seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Netsim.Rng.int rng n in
        if v < 0 || v >= n then ok := false
      done;
      !ok)

let test_rng_int_rejects () =
  let rng = Netsim.Rng.create 1 in
  Alcotest.check_raises "n=0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Netsim.Rng.int rng 0))

let test_rng_float_bounds () =
  let rng = Netsim.Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Netsim.Rng.float rng 5.0 in
    Alcotest.(check bool) "in [0,5)" true (v >= 0.0 && v < 5.0)
  done

let test_rng_int_covers () =
  (* All residues of a small modulus appear. *)
  let rng = Netsim.Rng.create 5 in
  let seen = Array.make 7 false in
  for _ = 1 to 1000 do
    seen.(Netsim.Rng.int rng 7) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

let test_rng_bernoulli_extremes () =
  let rng = Netsim.Rng.create 4 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1" true (Netsim.Rng.bernoulli rng 1.0);
    Alcotest.(check bool) "p=0" false (Netsim.Rng.bernoulli rng 0.0)
  done

let test_rng_bernoulli_rate () =
  let rng = Netsim.Rng.create 11 in
  let hits = ref 0 in
  let n = 20000 in
  for _ = 1 to n do
    if Netsim.Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "close to 0.3" true (abs_float (rate -. 0.3) < 0.02)

let test_rng_exponential_mean () =
  let rng = Netsim.Rng.create 13 in
  let sum = ref 0.0 in
  let n = 20000 in
  for _ = 1 to n do
    sum := !sum +. Netsim.Rng.exponential rng ~mean:4.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean ~4" true (abs_float (mean -. 4.0) < 0.25)

let test_rng_geometric () =
  let rng = Netsim.Rng.create 17 in
  Alcotest.(check int) "p=1 gives 0" 0 (Netsim.Rng.geometric rng ~p:1.0);
  let sum = ref 0 in
  let n = 20000 in
  for _ = 1 to n do
    sum := !sum + Netsim.Rng.geometric rng ~p:0.5
  done;
  (* mean failures before success = (1-p)/p = 1 *)
  let mean = float_of_int !sum /. float_of_int n in
  Alcotest.(check bool) "mean ~1" true (abs_float (mean -. 1.0) < 0.1)

let test_rng_pick () =
  let rng = Netsim.Rng.create 19 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "member" true
      (List.mem (Netsim.Rng.pick rng [ 1; 2; 3 ]) [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty list")
    (fun () -> ignore (Netsim.Rng.pick rng []))

let test_shuffle_permutation =
  qtest "shuffle is a permutation"
    QCheck.(pair small_int (list_of_size (Gen.int_range 0 50) int))
    (fun (seed, xs) ->
      let rng = Netsim.Rng.create seed in
      let a = Array.of_list xs in
      Netsim.Rng.shuffle_in_place rng a;
      List.sort compare (Array.to_list a) = List.sort compare xs)

(* ------------------------------------------------------------------ *)
(* Rng vs the textbook Int64 SplitMix64.

   The production generator keeps its state in 32-bit limbs and mixes
   on unboxed Int64 locals so that draws never box; this reference is
   the obvious Int64 form straight from the paper. The two must emit identical streams, and
   [Rng.int] must equal [(z >>> 1) mod n] for every bound — that
   exact equation is what keeps the division-free fast paths honest. *)

let ref_next st =
  st := Int64.add !st 0x9E3779B97F4A7C15L;
  let z = !st in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let interesting_seeds = [ 0; 1; 42; -1; -123456789; max_int; min_int + 1 ]

let test_rng_matches_int64_reference () =
  List.iter
    (fun seed ->
      let rng = Netsim.Rng.create seed in
      let st = ref (Int64.of_int seed) in
      for _ = 1 to 500 do
        Alcotest.(check int64) (Printf.sprintf "seed %d" seed) (ref_next st)
          (Netsim.Rng.bits64 rng)
      done)
    interesting_seeds

let test_rng_int_matches_int64_reference () =
  (* Bounds chosen to hit every dispatch path: the n <= 62 kernel
     range, powers of two, the 31-bit split-divide path and the Int64
     fallback past 2^30. *)
  let bounds =
    [ 1; 2; 3; 4; 5; 7; 8; 12; 16; 31; 32; 61; 62; 63; 64; 100; 1000;
      0x3FFFFFFF; 0x40000000; 0x40000001; 0x7FFFFFFFFF ]
  in
  List.iter
    (fun seed ->
      let rng = Netsim.Rng.create seed in
      let st = ref (Int64.of_int seed) in
      List.iter
        (fun n ->
          for _ = 1 to 50 do
            let expect =
              Int64.to_int
                (Int64.rem (Int64.shift_right_logical (ref_next st) 1) (Int64.of_int n))
            in
            Alcotest.(check int) (Printf.sprintf "seed %d mod %d" seed n) expect
              (Netsim.Rng.int rng n)
          done)
        bounds)
    interesting_seeds

(* 10^5 draws of each kind allocate nothing: the Int64 mix in [step]
   must stay unboxed. The [int] bounds cover the n <= 62 kernel range,
   powers of two, the split-divide path and the Int64 fallback. *)
let test_rng_draws_allocate_nothing () =
  let rng = Netsim.Rng.create 5 in
  let sink = ref 0 in
  let zero name f =
    let w0 = Gc.minor_words () in
    f ();
    Alcotest.(check (float 0.)) name 0. (Gc.minor_words () -. w0)
  in
  zero "int" (fun () ->
      for i = 1 to 100_000 do
        let n = if i land 1023 = 0 then (1 lsl 40) + 3 else 1 + (i land 127) in
        sink := !sink + Netsim.Rng.int rng n
      done);
  zero "bernoulli" (fun () ->
      for _ = 1 to 100_000 do
        if Netsim.Rng.bernoulli rng 0.3 then incr sink
      done);
  zero "select_bit" (fun () ->
      for i = 1 to 100_000 do
        sink := !sink + Netsim.Rng.select_bit rng (((i * 0x9E3779B1) lsl 2) lor 1)
      done);
  ignore !sink

(* ------------------------------------------------------------------ *)
(* Bits *)

let naive_popcount m =
  let c = ref 0 in
  for i = 0 to 62 do
    if m land (1 lsl i) <> 0 then incr c
  done;
  !c

let naive_select k m =
  let rec go k i =
    if m land (1 lsl i) = 0 then go k (i + 1)
    else if k = 0 then i
    else go (k - 1) (i + 1)
  in
  go k 0

(* Two 31-bit halves make an arbitrary 61-bit mask. *)
let mask_gen =
  QCheck.make
    ~print:(fun (a, b) -> Printf.sprintf "%#x" (a lor (b lsl 31)))
    QCheck.Gen.(pair (int_range 0 0x3FFFFFFF) (int_range 0 0x3FFFFFFF))

let test_bits_select_vs_naive =
  qtest ~count:500 "popcount/select agree with a bit-by-bit scan" mask_gen
    (fun (a, b) ->
      let m = a lor (b lsl 31) in
      let pc = Netsim.Bits.popcount m in
      pc = naive_popcount m
      && (m = 0
          || List.for_all
               (fun k -> Netsim.Bits.select k m = naive_select k m)
               (List.init pc Fun.id)))

let test_bits_select_edges () =
  Alcotest.(check int) "single low bit" 0 (Netsim.Bits.select 0 1);
  Alcotest.(check int) "single bit" 5 (Netsim.Bits.select 0 (1 lsl 5));
  Alcotest.(check int) "top bit" 61 (Netsim.Bits.select 0 (1 lsl 61));
  Alcotest.(check int) "last of three" 61
    (Netsim.Bits.select 2 ((1 lsl 61) lor 0b101));
  Alcotest.(check bool) "empty mask raises" true
    (try ignore (Netsim.Bits.select 0 0); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "k = popcount raises" true
    (try ignore (Netsim.Bits.select 2 0b101000); false
     with Invalid_argument _ -> true)

let test_bits_byte_prefix_total =
  qtest ~count:300 "byte_prefix top byte is the popcount" mask_gen
    (fun (a, b) ->
      let m = a lor (b lsl 31) in
      (Netsim.Bits.byte_prefix m lsr 56) land 0x7F = Netsim.Bits.popcount m)

let test_select_bit_stream_compat =
  qtest ~count:300 "select_bit = select (int t (popcount m)), one draw"
    QCheck.(pair small_int (pair (int_range 0 0x3FFFFFFF) (int_range 1 0x3FFFFFFF)))
    (fun (seed, (a, b)) ->
      let m = a lor (b lsl 31) in
      let r1 = Netsim.Rng.create seed and r2 = Netsim.Rng.create seed in
      Netsim.Rng.select_bit r1 m
      = Netsim.Bits.select (Netsim.Rng.int r2 (Netsim.Bits.popcount m)) m
      && Netsim.Rng.int r1 9973 = Netsim.Rng.int r2 9973)

let test_select_bit_edges () =
  let rng = Netsim.Rng.create 1 in
  Alcotest.(check int) "single bit" 7 (Netsim.Rng.select_bit rng (1 lsl 7));
  Alcotest.(check int) "top bit" 61 (Netsim.Rng.select_bit rng (1 lsl 61));
  Alcotest.(check bool) "empty mask raises" true
    (try ignore (Netsim.Rng.select_bit rng 0); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Mheap *)

let test_heap_sorted =
  qtest "pops ascending"
    QCheck.(list_of_size (Gen.int_range 0 200) small_int)
    (fun xs ->
      let h = Oracle.Mheap.create () in
      List.iter (fun x -> Oracle.Mheap.add h ~prio:x x) xs;
      let rec drain acc =
        match Oracle.Mheap.pop h with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      drain [] = List.sort compare xs)

let test_heap_fifo_ties () =
  let h = Oracle.Mheap.create () in
  List.iter (fun v -> Oracle.Mheap.add h ~prio:5 v) [ "a"; "b"; "c" ];
  Oracle.Mheap.add h ~prio:1 "first";
  let order = List.init 4 (fun _ -> snd (Option.get (Oracle.Mheap.pop h))) in
  Alcotest.(check (list string)) "fifo among ties" [ "first"; "a"; "b"; "c" ] order

let test_heap_against_model =
  qtest ~count:200 "random add/pop interleaving matches a sorted model"
    QCheck.(pair small_int (list_of_size (Gen.int_range 1 120) (int_range 0 2)))
    (fun (seed, script) ->
      let rng = Netsim.Rng.create seed in
      let h = Oracle.Mheap.create () in
      let model = ref [] in
      let ok = ref true in
      List.iter
        (fun op ->
          if op < 2 then begin
            (* add with a random priority *)
            let prio = Netsim.Rng.int rng 50 in
            Oracle.Mheap.add h ~prio prio;
            model := List.merge compare !model [ prio ]
          end
          else
            match (Oracle.Mheap.pop h, !model) with
            | None, [] -> ()
            | Some (p, _), m :: rest ->
              if p <> m then ok := false;
              model := rest
            | None, _ :: _ | Some _, [] -> ok := false)
        script;
      !ok && Oracle.Mheap.length h = List.length !model)

let test_heap_priority_then_fifo =
  qtest ~count:300 "pop order is a stable sort by priority"
    QCheck.(list_of_size (Gen.int_range 0 150) (int_range 0 20))
    (fun prios ->
      (* Tag each insertion with its sequence number: the heap must pop
         in exactly the order of a stable sort on priority, i.e. ties
         leave in insertion order. *)
      let h = Oracle.Mheap.create () in
      List.iteri (fun i p -> Oracle.Mheap.add h ~prio:p (p, i)) prios;
      let rec drain acc =
        match Oracle.Mheap.pop h with
        | None -> List.rev acc
        | Some (_, v) -> drain (v :: acc)
      in
      drain []
      = List.stable_sort
          (fun (a, _) (b, _) -> compare a b)
          (List.mapi (fun i p -> (p, i)) prios))

let test_heap_length_and_clear () =
  let h = Oracle.Mheap.create () in
  Alcotest.(check bool) "empty" true (Oracle.Mheap.is_empty h);
  for i = 1 to 10 do
    Oracle.Mheap.add h ~prio:i i
  done;
  Alcotest.(check int) "length" 10 (Oracle.Mheap.length h);
  Alcotest.(check (option int)) "min prio" (Some 1) (Oracle.Mheap.min_prio h);
  Oracle.Mheap.clear h;
  Alcotest.(check int) "cleared" 0 (Oracle.Mheap.length h);
  Alcotest.(check (option int)) "no min" None (Oracle.Mheap.min_prio h)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_order () =
  let e = Netsim.Engine.create () in
  let log = ref [] in
  ignore (Netsim.Engine.schedule e ~delay:30 (fun () -> log := 30 :: !log));
  ignore (Netsim.Engine.schedule e ~delay:10 (fun () -> log := 10 :: !log));
  ignore (Netsim.Engine.schedule e ~delay:20 (fun () -> log := 20 :: !log));
  Netsim.Engine.run e;
  Alcotest.(check (list int)) "time order" [ 10; 20; 30 ] (List.rev !log)

let test_engine_fifo_simultaneous () =
  let e = Netsim.Engine.create () in
  let log = ref [] in
  List.iter
    (fun tag -> ignore (Netsim.Engine.schedule e ~delay:5 (fun () -> log := tag :: !log)))
    [ "a"; "b"; "c" ];
  Netsim.Engine.run e;
  Alcotest.(check (list string)) "fifo" [ "a"; "b"; "c" ] (List.rev !log)

let test_engine_clock_advances () =
  let e = Netsim.Engine.create () in
  let seen = ref (-1) in
  ignore (Netsim.Engine.schedule e ~delay:42 (fun () -> seen := Netsim.Engine.now e));
  Netsim.Engine.run e;
  Alcotest.(check int) "clock at event" 42 !seen;
  Alcotest.(check int) "clock after run" 42 (Netsim.Engine.now e)

let test_engine_nested_scheduling () =
  let e = Netsim.Engine.create () in
  let hits = ref [] in
  ignore
    (Netsim.Engine.schedule e ~delay:10 (fun () ->
         hits := Netsim.Engine.now e :: !hits;
         ignore
           (Netsim.Engine.schedule e ~delay:5 (fun () ->
                hits := Netsim.Engine.now e :: !hits))));
  Netsim.Engine.run e;
  Alcotest.(check (list int)) "nested times" [ 10; 15 ] (List.rev !hits)

let test_engine_cancel () =
  let e = Netsim.Engine.create () in
  let fired = ref false in
  let id = Netsim.Engine.schedule e ~delay:10 (fun () -> fired := true) in
  Netsim.Engine.cancel e id;
  Netsim.Engine.run e;
  Alcotest.(check bool) "cancelled" false !fired;
  (* double-cancel is a no-op *)
  Netsim.Engine.cancel e id

let test_engine_cancel_one_of_many () =
  let e = Netsim.Engine.create () in
  let log = ref [] in
  let _a = Netsim.Engine.schedule e ~delay:1 (fun () -> log := "a" :: !log) in
  let b = Netsim.Engine.schedule e ~delay:2 (fun () -> log := "b" :: !log) in
  let _c = Netsim.Engine.schedule e ~delay:3 (fun () -> log := "c" :: !log) in
  Netsim.Engine.cancel e b;
  Netsim.Engine.run e;
  Alcotest.(check (list string)) "b skipped" [ "a"; "c" ] (List.rev !log)

let test_engine_run_until () =
  let e = Netsim.Engine.create () in
  let log = ref [] in
  ignore (Netsim.Engine.schedule e ~delay:10 (fun () -> log := 10 :: !log));
  ignore (Netsim.Engine.schedule e ~delay:50 (fun () -> log := 50 :: !log));
  Netsim.Engine.run_until e 20;
  Alcotest.(check (list int)) "only first" [ 10 ] (List.rev !log);
  Alcotest.(check int) "clock at horizon" 20 (Netsim.Engine.now e);
  Netsim.Engine.run_until e 100;
  Alcotest.(check (list int)) "second fires" [ 10; 50 ] (List.rev !log)

let test_engine_rejects_past () =
  let e = Netsim.Engine.create () in
  ignore (Netsim.Engine.schedule e ~delay:10 (fun () -> ()));
  Netsim.Engine.run e;
  Alcotest.(check bool) "raises" true
    (try
       ignore (Netsim.Engine.schedule_at e ~at:5 (fun () -> ()));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative delay" true
    (try
       ignore (Netsim.Engine.schedule e ~delay:(-1) (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_engine_cancel_during_dispatch () =
  (* An event may cancel another event scheduled for the same time. *)
  let e = Netsim.Engine.create () in
  let fired = ref [] in
  let b = ref None in
  ignore
    (Netsim.Engine.schedule e ~delay:5 (fun () ->
         fired := "a" :: !fired;
         match !b with Some id -> Netsim.Engine.cancel e id | None -> ()));
  b := Some (Netsim.Engine.schedule e ~delay:5 (fun () -> fired := "b" :: !fired));
  Netsim.Engine.run e;
  Alcotest.(check (list string)) "b suppressed" [ "a" ] (List.rev !fired)

let test_engine_step_and_pending () =
  let e = Netsim.Engine.create () in
  ignore (Netsim.Engine.schedule e ~delay:1 (fun () -> ()));
  ignore (Netsim.Engine.schedule e ~delay:2 (fun () -> ()));
  Alcotest.(check int) "pending" 2 (Netsim.Engine.pending e);
  Alcotest.(check bool) "step true" true (Netsim.Engine.step e);
  Alcotest.(check bool) "step true" true (Netsim.Engine.step e);
  Alcotest.(check bool) "step false" false (Netsim.Engine.step e)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_summary () =
  let s = Netsim.Stats.Summary.create () in
  List.iter (Netsim.Stats.Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check int) "count" 8 (Netsim.Stats.Summary.count s);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Netsim.Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "sample variance" (32.0 /. 7.0)
    (Netsim.Stats.Summary.variance s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Netsim.Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Netsim.Stats.Summary.max s)

let test_summary_empty () =
  let s = Netsim.Stats.Summary.create () in
  Alcotest.(check (float 0.0)) "mean 0" 0.0 (Netsim.Stats.Summary.mean s);
  Alcotest.(check (float 0.0)) "var 0" 0.0 (Netsim.Stats.Summary.variance s)

let test_distribution_percentiles () =
  let d = Netsim.Stats.Distribution.create () in
  for i = 1 to 100 do
    Netsim.Stats.Distribution.add d (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "median" 50.5 (Netsim.Stats.Distribution.median d);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Netsim.Stats.Distribution.percentile d 0.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0
    (Netsim.Stats.Distribution.percentile d 100.0);
  Alcotest.(check (float 1e-9)) "max" 100.0 (Netsim.Stats.Distribution.max d);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (Netsim.Stats.Distribution.mean d)

let test_distribution_interleaved_adds () =
  (* Adding after a percentile query must re-sort. *)
  let d = Netsim.Stats.Distribution.create () in
  Netsim.Stats.Distribution.add d 10.0;
  ignore (Netsim.Stats.Distribution.median d);
  Netsim.Stats.Distribution.add d 1.0;
  Alcotest.(check (float 1e-9)) "min updated" 1.0
    (Netsim.Stats.Distribution.percentile d 0.0)

(* Int_distribution counts what Distribution sorts: on the same
   samples every query must agree bit for bit. Samples up to 3000 run
   past the histogram's initial 256 buckets. *)
let int_distribution_matches =
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  qtest ~count:300 "Int_distribution equals Distribution bit for bit"
    QCheck.(
      list_of_size (Gen.int_range 0 300)
        (make Gen.(oneof [ int_range 0 20; int_range 0 3000 ])))
    (fun samples ->
      let d = Netsim.Stats.Distribution.create () in
      let h = Netsim.Stats.Int_distribution.create () in
      List.iter
        (fun v ->
          Netsim.Stats.Distribution.add d (float_of_int v);
          Netsim.Stats.Int_distribution.add h v)
        samples;
      Netsim.Stats.Distribution.count d = Netsim.Stats.Int_distribution.count h
      && same (Netsim.Stats.Distribution.mean d) (Netsim.Stats.Int_distribution.mean h)
      && same (Netsim.Stats.Distribution.max d) (Netsim.Stats.Int_distribution.max h)
      && List.for_all
           (fun p ->
             same
               (Netsim.Stats.Distribution.percentile d p)
               (Netsim.Stats.Int_distribution.percentile h p))
           [ 0.0; 1.0; 50.0; 99.0; 99.9; 100.0 ])

let test_int_distribution_empty () =
  let h = Netsim.Stats.Int_distribution.create () in
  Alcotest.(check int) "count" 0 (Netsim.Stats.Int_distribution.count h);
  Alcotest.(check (float 0.0)) "mean 0" 0.0 (Netsim.Stats.Int_distribution.mean h);
  Alcotest.(check bool) "p99 nan" true
    (Float.is_nan (Netsim.Stats.Int_distribution.percentile h 99.0));
  Alcotest.(check bool) "max nan" true
    (Float.is_nan (Netsim.Stats.Int_distribution.max h))

let test_int_distribution_negative () =
  let h = Netsim.Stats.Int_distribution.create () in
  Alcotest.check_raises "negative sample"
    (Invalid_argument "Stats.Int_distribution.add: negative sample") (fun () ->
      Netsim.Stats.Int_distribution.add h (-1));
  Alcotest.(check int) "nothing added" 0 (Netsim.Stats.Int_distribution.count h)

let test_time () =
  Alcotest.(check int) "us" 3_000 (Netsim.Time.us 3);
  Alcotest.(check int) "ms" 3_000_000 (Netsim.Time.ms 3);
  Alcotest.(check int) "s" 3_000_000_000 (Netsim.Time.s 3);
  Alcotest.(check (float 1e-9)) "to_ms" 1.5 (Netsim.Time.to_ms 1_500_000);
  Alcotest.(check string) "pp us" "2.00us"
    (Format.asprintf "%a" Netsim.Time.pp (Netsim.Time.us 2))

let () =
  Alcotest.run "netsim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "copy replays" `Quick test_rng_copy_replays;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          test_rng_int_bounds;
          Alcotest.test_case "int rejects" `Quick test_rng_int_rejects;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "int covers residues" `Quick test_rng_int_covers;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli_rate;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "geometric" `Quick test_rng_geometric;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          test_shuffle_permutation;
          Alcotest.test_case "bits64 = Int64 splitmix64" `Quick
            test_rng_matches_int64_reference;
          Alcotest.test_case "int = (z >>> 1) mod n, all paths" `Quick
            test_rng_int_matches_int64_reference;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_rng_draws_allocate_nothing;
          test_select_bit_stream_compat;
          Alcotest.test_case "select_bit edges" `Quick test_select_bit_edges;
        ] );
      ( "bits",
        [
          test_bits_select_vs_naive;
          Alcotest.test_case "select edges" `Quick test_bits_select_edges;
          test_bits_byte_prefix_total;
        ] );
      ( "mheap",
        [
          test_heap_sorted;
          test_heap_against_model;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          test_heap_priority_then_fifo;
          Alcotest.test_case "length/clear" `Quick test_heap_length_and_clear;
        ] );
      ( "engine",
        [
          Alcotest.test_case "order" `Quick test_engine_order;
          Alcotest.test_case "fifo simultaneous" `Quick test_engine_fifo_simultaneous;
          Alcotest.test_case "clock advances" `Quick test_engine_clock_advances;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "cancel one of many" `Quick test_engine_cancel_one_of_many;
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
          Alcotest.test_case "cancel during dispatch" `Quick
            test_engine_cancel_during_dispatch;
          Alcotest.test_case "step/pending" `Quick test_engine_step_and_pending;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "summary empty" `Quick test_summary_empty;
          Alcotest.test_case "distribution percentiles" `Quick
            test_distribution_percentiles;
          Alcotest.test_case "distribution re-sorts" `Quick
            test_distribution_interleaved_adds;
          int_distribution_matches;
          Alcotest.test_case "int distribution empty" `Quick
            test_int_distribution_empty;
          Alcotest.test_case "int distribution rejects negatives" `Quick
            test_int_distribution_negative;
          Alcotest.test_case "time" `Quick test_time;
        ] );
    ]
