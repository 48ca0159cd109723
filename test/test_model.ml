(* Model-based fuzzing of the AN2 control plane.

   Random sequences of control operations (circuit setup/teardown,
   bandwidth admission/release, link failure/repair, re-routing,
   paging, load rebalancing) run against one network, with global
   invariants checked after every step:

   - routing-table consistency: every live, non-paged circuit has an
     entry at exactly the switches of its path, consistent with its
     link sequence;
   - schedule validity: every switch's frame schedule stays a partial
     permutation per slot;
   - capacity accounting: bandwidth central's per-link reservation
     equals the sum over live guaranteed circuits crossing that link,
     and never exceeds the frame;
   - paging: paged circuits have no table entries anywhere. *)

type world = {
  g : Topo.Graph.t;
  net : An2.Network.t;
  bwc : An2.Bandwidth_central.t;
  mutable capacity_denials : int;  (* requests denied for a full link *)
}

let make_world ~frame g =
  let net = An2.Network.create ~frame g in
  { g; net; bwc = An2.Bandwidth_central.create net; capacity_denials = 0 }

(* The SRC LAN with a parallel twin of every edge switch's link to
   backbone switch 0: admission, reroutes and rebalancing must reserve
   and install the twin their search crossed, not the first link
   between the two switches. Its fuzz runs an 8-cell frame, so that
   links fill up and the search has to pass over a full first link. *)
let twinned_src_lan () =
  let g = Topo.Build.src_lan () in
  for e = 2 to 9 do
    ignore (Topo.Graph.connect g (Switch e) (Switch 0))
  done;
  g

let live_vcs w =
  let acc = ref [] in
  An2.Network.iter_vcs w.net (fun vc -> acc := vc :: !acc);
  !acc

let switch_links w =
  List.filter_map
    (fun (l : Topo.Graph.link) ->
      match (l.a.node, l.b.node) with
      | Topo.Graph.Switch _, Topo.Graph.Switch _ -> Some l
      | _ -> None)
    (Topo.Graph.links w.g)

(* ------------------------------------------------------------------ *)
(* Invariants *)

let check_tables w =
  List.for_all
    (fun (vc : An2.Network.vc) ->
      let entries = An2.Network.table_entries vc in
      if vc.paged_out then
        (* No entry anywhere. *)
        List.for_all
          (fun (s, _) ->
            An2.Network.next_hop w.net ~switch:s ~vc_id:vc.vc_id = None)
          entries
      else
        List.length entries = List.length vc.switches
        && List.for_all
             (fun (s, (in_l, out_l)) ->
               match An2.Network.next_hop w.net ~switch:s ~vc_id:vc.vc_id with
               | Some (out', in') -> out' = out_l && in' = in_l
               | None -> false)
             entries)
    (live_vcs w)

let check_schedules w =
  let ok = ref true in
  for s = 0 to Topo.Graph.switch_count w.g - 1 do
    if not (Frame.Schedule.valid (An2.Network.switch_schedule w.net s)) then
      ok := false
  done;
  !ok

let check_accounting w =
  let expected = Hashtbl.create 32 in
  List.iter
    (fun (vc : An2.Network.vc) ->
      match vc.cls with
      | An2.Network.Guaranteed cells ->
        List.iter
          (fun lid ->
            Hashtbl.replace expected lid
              (cells + Option.value ~default:0 (Hashtbl.find_opt expected lid)))
          vc.links
      | An2.Network.Best_effort -> ())
    (live_vcs w);
  List.for_all
    (fun (l : Topo.Graph.link) ->
      let want = Option.value ~default:0 (Hashtbl.find_opt expected l.link_id) in
      let got = An2.Bandwidth_central.reserved w.bwc l.link_id in
      got = want && got <= An2.Network.frame_length w.net)
    (Topo.Graph.links w.g)

let check_all w step op =
  let fail what =
    Alcotest.failf "invariant %s broken after step %d (%s)" what step op
  in
  if not (check_tables w) then fail "tables";
  if not (check_schedules w) then fail "schedules";
  if not (check_accounting w) then fail "accounting"

(* ------------------------------------------------------------------ *)
(* Operations *)

let random_host rng w = Netsim.Rng.int rng (Topo.Graph.host_count w.g)

let pick_vc rng w pred =
  match List.filter pred (live_vcs w) with
  | [] -> None
  | vcs -> Some (Netsim.Rng.pick rng vcs)

let is_be (vc : An2.Network.vc) = vc.cls = An2.Network.Best_effort
let is_guaranteed (vc : An2.Network.vc) = not (is_be vc)

let apply_op rng w =
  match Netsim.Rng.int rng 11 with
  | 0 ->
    let a = random_host rng w and b = random_host rng w in
    if a <> b then
      ignore (An2.Network.setup_best_effort w.net ~src_host:a ~dst_host:b);
    "setup-be"
  | 1 ->
    (match pick_vc rng w is_be with
     | Some vc -> An2.Network.teardown w.net vc
     | None -> ());
    "teardown-be"
  | 2 ->
    let a = random_host rng w and b = random_host rng w in
    (if a <> b then
       match
         An2.Bandwidth_central.request w.bwc ~src_host:a ~dst_host:b
           ~cells:(1 + Netsim.Rng.int rng 6)
       with
       | Error An2.Bandwidth_central.No_capacity ->
         w.capacity_denials <- w.capacity_denials + 1
       | Ok _ | Error An2.Bandwidth_central.No_route -> ());
    "request-cbr"
  | 3 ->
    (match pick_vc rng w is_guaranteed with
     | Some vc -> An2.Bandwidth_central.release w.bwc vc
     | None -> ());
    "release-cbr"
  | 4 ->
    (match
       List.filter (fun (l : Topo.Graph.link) -> l.state = Topo.Graph.Working)
         (switch_links w)
     with
     | [] -> ()
     | ls -> Topo.Graph.fail_link w.g (Netsim.Rng.pick rng ls).link_id);
    "fail-link"
  | 5 ->
    (match
       List.filter (fun (l : Topo.Graph.link) -> l.state = Topo.Graph.Dead)
         (switch_links w)
     with
     | [] -> ()
     | ls -> Topo.Graph.restore_link w.g (Netsim.Rng.pick rng ls).link_id);
    "restore-link"
  | 6 ->
    (* Repair every best-effort circuit crossing a dead link. *)
    List.iter
      (fun (vc : An2.Network.vc) ->
        if
          is_be vc && (not vc.paged_out)
          && List.exists
               (fun lid ->
                 (Topo.Graph.link w.g lid).Topo.Graph.state = Topo.Graph.Dead)
               vc.links
        then
          match An2.Network.reroute w.net vc with
          | Ok () -> ()
          | Error _ -> An2.Network.teardown w.net vc)
      (live_vcs w);
    "repair-be"
  | 7 ->
    (* Re-admit every broken guaranteed circuit. *)
    List.iter
      (fun (vc : An2.Network.vc) ->
        if
          is_guaranteed vc
          && List.exists
               (fun lid ->
                 (Topo.Graph.link w.g lid).Topo.Graph.state = Topo.Graph.Dead)
               vc.links
        then ignore (An2.Bandwidth_central.reroute_after_failure w.bwc vc))
      (live_vcs w);
    "repair-cbr"
  | 8 ->
    (match pick_vc rng w (fun vc -> is_be vc && not vc.paged_out) with
     | Some vc -> An2.Network.page_out w.net vc
     | None -> ());
    "page-out"
  | 9 ->
    (match pick_vc rng w (fun (vc : An2.Network.vc) -> vc.paged_out) with
     | Some vc -> ignore (An2.Network.page_in w.net vc)
     | None -> ());
    "page-in"
  | _ ->
    ignore (An2.Rebalance.rebalance w.net);
    "rebalance"

let run_fuzz ?(frame = 32) g seed steps =
  let rng = Netsim.Rng.create seed in
  let w = make_world ~frame g in
  for step = 1 to steps do
    let op = apply_op rng w in
    check_all w step op
  done;
  w.capacity_denials

(* At the 32-cell frame, 1-6-cell requests almost never fill a link;
   the 8-cell frame fills links, so the invariants are also checked
   across capacity denials, and the case fails if none happened. *)
let test_fuzz_seeds () =
  let denials = ref 0 in
  for seed = 0 to 19 do
    ignore (run_fuzz (Topo.Build.src_lan ()) seed 300);
    denials := !denials + run_fuzz ~frame:8 (Topo.Build.src_lan ()) seed 300
  done;
  Printf.printf "capacity denials at an 8-cell frame: %d\n" !denials;
  Alcotest.(check bool) "some request denied for capacity" true (!denials > 0)

let test_fuzz_long () = ignore (run_fuzz (Topo.Build.src_lan ()) 424242 2000)

let test_fuzz_twinned () =
  for seed = 0 to 19 do
    ignore (run_fuzz ~frame:8 (twinned_src_lan ()) seed 300)
  done

let () =
  Alcotest.run "model"
    [
      ( "control-plane-fuzz",
        [
          Alcotest.test_case "20 seeds x 300 ops" `Quick test_fuzz_seeds;
          Alcotest.test_case "one long run (2000 ops)" `Slow test_fuzz_long;
          Alcotest.test_case "parallel links: 20 seeds x 300 ops" `Quick
            test_fuzz_twinned;
        ] );
    ]
