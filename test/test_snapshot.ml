(* Snapshot container: primitive round-trips, canonical encoding,
   loud rejection of corrupted or truncated files, and the module-level
   save/restore/save byte-equality that checkpointing rests on. *)

module Snap = Netsim.Snapshot

let prop ~count name gen p =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen p)

(* ------------------------------------------------------------------ *)
(* W/R primitives *)

type value =
  | I of int
  | B of bool
  | F of float
  | S of string
  | A of int array
  | L of int list

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> I v) int;
        map (fun v -> B v) bool;
        map (fun v -> F v) float;
        map (fun v -> S v) (string_size (int_range 0 40));
        map (fun v -> A (Array.of_list v)) (list_size (int_range 0 20) int);
        map (fun v -> L v) (list_size (int_range 0 20) int);
      ])

let write_value w = function
  | I v -> Snap.W.int w v
  | B v -> Snap.W.bool w v
  | F v -> Snap.W.float w v
  | S v -> Snap.W.string w v
  | A v -> Snap.W.int_array w v
  | L v -> Snap.W.int_list w v

let read_value r = function
  | I _ -> I (Snap.R.int r)
  | B _ -> B (Snap.R.bool r)
  | F _ -> F (Snap.R.float r)
  | S _ -> S (Snap.R.string r)
  | A _ -> A (Snap.R.int_array r)
  | L _ -> L (Snap.R.int_list r)

(* NaN-proof equality: floats compare by bit pattern. *)
let value_eq a b =
  match (a, b) with
  | F x, F y -> Int64.bits_of_float x = Int64.bits_of_float y
  | _ -> a = b

let prop_primitives_roundtrip =
  prop ~count:200 "W then R returns every primitive"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 30) value_gen))
    (fun values ->
      let sec =
        Snap.make ~name:"t" ~version:3 (fun w ->
            List.iter (write_value w) values)
      in
      let back =
        Snap.read sec ~name:"t" ~version:3 (fun r ->
            List.map (read_value r) values)
      in
      List.for_all2 value_eq values back)

(* ------------------------------------------------------------------ *)
(* Container: canonical encoding and damage rejection *)

let section_gen =
  QCheck.Gen.(
    map3
      (fun name version payload ->
        Snap.make
          ~name:(Printf.sprintf "s-%s" name)
          ~version:(version land 0xFFFF)
          (fun w -> Snap.W.string w payload))
      (string_size ~gen:(char_range 'a' 'z') (int_range 1 12))
      nat
      (string_size (int_range 0 200)))

let sections_gen =
  QCheck.make QCheck.Gen.(list_size (int_range 0 6) section_gen)

let sections_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         Snap.section_name x = Snap.section_name y
         && Snap.section_version x = Snap.section_version y
         && Snap.read x ~name:(Snap.section_name x)
              ~version:(Snap.section_version x) Snap.R.string
            = Snap.read y ~name:(Snap.section_name y)
                ~version:(Snap.section_version y) Snap.R.string)
       a b

let prop_container_roundtrip =
  prop ~count:100 "decode inverts encode, re-encode is byte-identical"
    sections_gen (fun secs ->
      let bytes = Snap.encode secs in
      let back = Snap.decode bytes in
      sections_equal secs back && Snap.encode back = bytes)

let rejects what f =
  match f () with
  | exception Snap.Corrupt _ -> true
  | _ ->
    Printf.eprintf "expected Corrupt: %s\n" what;
    false

let prop_flip_any_byte_rejected =
  (* Every byte of the file is covered by a checksum (or is structure
     whose damage is caught first), so any single-byte flip must raise. *)
  prop ~count:150 "flipping any byte raises Corrupt"
    (QCheck.pair sections_gen QCheck.small_int)
    (fun (secs, at) ->
      let bytes = Bytes.of_string (Snap.encode secs) in
      let i = at mod Bytes.length bytes in
      Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0x5A));
      rejects "byte flip" (fun () -> Snap.decode (Bytes.to_string bytes)))

let prop_truncation_rejected =
  prop ~count:150 "any truncation raises Corrupt"
    (QCheck.pair sections_gen QCheck.small_int)
    (fun (secs, at) ->
      let s = Snap.encode secs in
      let keep = at mod String.length s in
      rejects "truncation" (fun () -> Snap.decode (String.sub s 0 keep)))

let test_bad_magic () =
  Alcotest.(check bool)
    "wrong magic rejected" true
    (rejects "magic" (fun () -> Snap.decode "NOTASNAPxxxxxxxxxxxxxxxx"))

let test_read_checks_name_and_version () =
  let sec = Snap.make ~name:"a" ~version:1 (fun w -> Snap.W.int w 7) in
  Alcotest.(check bool)
    "wrong name" true
    (rejects "name" (fun () -> Snap.read sec ~name:"b" ~version:1 Snap.R.int));
  Alcotest.(check bool)
    "wrong version" true
    (rejects "version" (fun () ->
         Snap.read sec ~name:"a" ~version:2 Snap.R.int));
  Alcotest.(check bool)
    "unconsumed payload" true
    (rejects "leftover" (fun () ->
         Snap.read sec ~name:"a" ~version:1 (fun _ -> ())))

let test_digest_fingerprints_state () =
  let mk v = [ Snap.make ~name:"x" ~version:1 (fun w -> Snap.W.int w v) ] in
  let d1 = Snap.digest (mk 1) and d2 = Snap.digest (mk 2) in
  Alcotest.(check bool) "different state, different digest" true (d1 <> d2);
  (* CRC-32's self-check residue — what every digest collapsed to when
     the trailing file CRC was (wrongly) included in the digested span. *)
  Alcotest.(check bool)
    "digest is not the CRC residue constant" true
    (d1 <> 0x2144DF1C && d2 <> 0x2144DF1C)

(* ------------------------------------------------------------------ *)
(* Module sections: save -> restore -> save is byte-identical *)

let test_engine_section_roundtrip () =
  let obs = Obs.Sink.create () in
  let e = Netsim.Engine.create ~obs () in
  (* nested posts reuse slots out of order, threading the pool's
     free list, which save must carry *)
  for i = 1 to 20 do
    Netsim.Engine.post_at e ~at:(Netsim.Time.ms (i * 3)) (fun () ->
        if i mod 4 = 0 then
          Netsim.Engine.post e ~delay:(Netsim.Time.ms (i mod 7)) ignore)
  done;
  Netsim.Engine.run e;
  let s1 = Netsim.Engine.save e in
  let obs2 = Obs.Sink.create () in
  let e2 = Netsim.Engine.restore ~obs:obs2 s1 in
  let s2 = Netsim.Engine.save e2 in
  Alcotest.(check bool)
    "engine save/restore/save bytes" true
    (Snap.encode [ s1 ] = Snap.encode [ s2 ]);
  Alcotest.(check bool)
    "clock survives restore" true
    (Netsim.Engine.now e2 = Netsim.Engine.now e);
  (* future posting behaves identically on both sides of the seam:
     each dispatch's trace span names its pool slot *)
  let slots_after obs e =
    for i = 1 to 5 do
      Netsim.Engine.post e ~delay:(Netsim.Time.ms (10 - i)) ignore
    done;
    Netsim.Engine.run e;
    let slots = ref [] in
    Obs.Trace.iter (Obs.Sink.trace obs) (fun ev ->
        slots := ev.Obs.Trace.ev :: !slots);
    List.filteri (fun i _ -> i < 5) !slots
  in
  Alcotest.(check (list int)) "same slots after restore"
    (slots_after obs e) (slots_after obs2 e2)

let test_engine_tie_break_counter () =
  (* The FIFO tie-break counter a snapshot carries counts every post,
     whether it went to the near-future wheel or to the overflow heap.
     300 events pending at once turn the wheel on. *)
  let e = Netsim.Engine.create () in
  let w = Netsim.Engine.wheel_span in
  let posts = ref 0 in
  let post delay f =
    incr posts;
    Netsim.Engine.post e ~delay f
  in
  for i = 0 to 299 do
    let delay = if i mod 3 = 0 then (i mod 4 * w) + (i mod 7) else i mod 50 in
    post delay (fun () -> if i mod 5 = 0 then post (w + 1) ignore)
  done;
  Netsim.Engine.run e;
  let counter =
    Snap.read (Netsim.Engine.save e) ~name:"netsim-engine" ~version:2 (fun r ->
        let _clock = Snap.R.int r in
        let _dispatched = Snap.R.int r in
        let counter = Snap.R.int r in
        let _free_head = Snap.R.int r in
        let _free_next = Snap.R.int_array r in
        counter)
  in
  Alcotest.(check int) "counter = posts" !posts counter

(* An engine section with the given pool free list, all counters 0. *)
let engine_section ~free_head free_next =
  Snap.make ~name:"netsim-engine" ~version:2 (fun w ->
      Snap.W.int w 0;
      Snap.W.int w 0;
      Snap.W.int w 0;
      Snap.W.int w free_head;
      Snap.W.int_array w free_next)

let test_engine_free_list_checked () =
  (* A quiescent save holds every pool slot on the free list, so the
     walk from its head must visit each slot once and end at -1. A
     looping list would hand one slot to two posts, and the second
     post would overwrite the first event unseen. *)
  let restores (free_head, free_next) =
    match Netsim.Engine.restore (engine_section ~free_head free_next) with
    | _ -> true
    | exception Snap.Corrupt _ -> false
  in
  List.iter
    (fun (what, list) ->
      Alcotest.(check bool) what true (restores list))
    [
      ("empty pool", (-1, [||]));
      ("one slot", (0, [| -1 |]));
      ("three slots, any order", (1, [| -1; 2; 0 |]));
    ];
  List.iter
    (fun (what, list) ->
      Alcotest.(check bool) what false (restores list))
    [
      ("a slot that links to itself", (0, [| 0 |]));
      ("a loop behind the head", (0, [| 1; 2; 1 |]));
      ("a list that misses a slot", (0, [| -1; -1 |]));
      ("an empty list over a pool", (-1, [| -1 |]));
    ];
  (* A valid list still hands out distinct slots after the restore. *)
  let e = Netsim.Engine.restore (engine_section ~free_head:1 [| -1; 0 |]) in
  let log = ref [] in
  Netsim.Engine.post e ~delay:1 (fun () -> log := 1 :: !log);
  Netsim.Engine.post e ~delay:1 (fun () -> log := 2 :: !log);
  Netsim.Engine.run e;
  Alcotest.(check (list int)) "both events run" [ 1; 2 ] (List.rev !log)

let test_graph_section_roundtrip () =
  let g = Topo.Build.src_lan () in
  Topo.Graph.fail_link g 2;
  Topo.Graph.fail_link g 5;
  Topo.Graph.restore_link g 2;
  let s1 = Topo.Graph.save g in
  let g2 = Topo.Graph.restore s1 in
  let s2 = Topo.Graph.save g2 in
  Alcotest.(check bool)
    "graph save/restore/save bytes" true
    (Snap.encode [ s1 ] = Snap.encode [ s2 ]);
  Alcotest.(check bool)
    "failed link stays failed after restore" true
    ((Topo.Graph.link g2 5).Topo.Graph.state = Topo.Graph.Dead);
  Alcotest.(check int)
    "switch count survives" (Topo.Graph.switch_count g)
    (Topo.Graph.switch_count g2)

(* A Network section with no circuits and one schedule triple at
   switch 0: the layout of An2.Network.save. *)
let network_section g ~frame (slot, input, output) =
  let n = Topo.Graph.switch_count g in
  Snap.make ~name:"an2-network" ~version:1 (fun w ->
      Snap.W.int w frame;
      Snap.W.int w 1;
      Snap.W.int w n;
      Snap.W.int w 0;
      for _ = 1 to n do
        Snap.W.int w 0
      done;
      for s = 0 to n - 1 do
        if s = 0 then begin
          Snap.W.int w 1;
          Snap.W.int w slot;
          Snap.W.int w input;
          Snap.W.int w output
        end
        else Snap.W.int w 0
      done)

let test_network_schedule_entry_range () =
  let g = Topo.Build.src_lan () in
  let frame = 8 and ports = Topo.Graph.ports_per_switch g in
  let good = network_section g ~frame (frame - 1, ports - 1, 0) in
  let net = An2.Network.restore ~graph:g good in
  Alcotest.(check (option int))
    "in-range entry restored" (Some 0)
    (Frame.Schedule.output_of (An2.Network.switch_schedule net 0) ~slot:(frame - 1)
       ~input:(ports - 1));
  Alcotest.(check bool)
    "save/restore/save bytes" true
    (Snap.encode [ good ] = Snap.encode [ An2.Network.save net ]);
  List.iter
    (fun (what, triple) ->
      Alcotest.(check bool)
        what true
        (rejects what (fun () ->
             An2.Network.restore ~graph:g (network_section g ~frame triple))))
    [
      ("slot >= frame", (frame, 0, 1));
      ("negative slot", (-1, 0, 1));
      ("input >= ports", (0, ports, 1));
      ("output >= ports", (0, 0, ports));
      ("negative output", (0, 0, -1));
    ]

let () =
  Alcotest.run "snapshot"
    [
      ( "primitives",
        [ prop_primitives_roundtrip ] );
      ( "container",
        [
          prop_container_roundtrip;
          prop_flip_any_byte_rejected;
          prop_truncation_rejected;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "read checks name/version/consumption" `Quick
            test_read_checks_name_and_version;
          Alcotest.test_case "digest fingerprints state" `Quick
            test_digest_fingerprints_state;
        ] );
      ( "module sections",
        [
          Alcotest.test_case "engine round-trip" `Quick
            test_engine_section_roundtrip;
          Alcotest.test_case "graph round-trip" `Quick
            test_graph_section_roundtrip;
          Alcotest.test_case "network schedule entries range-checked" `Quick
            test_network_schedule_entry_range;
          Alcotest.test_case "engine tie-break counter" `Quick
            test_engine_tie_break_counter;
          Alcotest.test_case "engine free list checked" `Quick
            test_engine_free_list_checked;
        ] );
    ]
