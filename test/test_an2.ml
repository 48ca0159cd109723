(* Tests for the integrated AN2 network: host controllers, circuit
   setup and rerouting, bandwidth central, and end-to-end runs. *)

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Host segmentation / reassembly *)

let test_cells_needed () =
  Alcotest.(check int) "1 byte" 1 (An2.Host.cells_needed 1);
  Alcotest.(check int) "48 bytes" 1 (An2.Host.cells_needed 48);
  Alcotest.(check int) "49 bytes" 2 (An2.Host.cells_needed 49);
  Alcotest.(check int) "1500 bytes" 32 (An2.Host.cells_needed 1500);
  Alcotest.(check bool) "rejects 0" true
    (try ignore (An2.Host.cells_needed 0); false with Invalid_argument _ -> true)

let test_segment_shape () =
  let cells = An2.Host.segment { packet_id = 9; size = 100 } ~vc:3 in
  Alcotest.(check int) "3 cells" 3 (List.length cells);
  List.iteri
    (fun i (c : An2.Host.cell) ->
      Alcotest.(check int) "vc" 3 c.vc;
      Alcotest.(check int) "seq" i c.seq;
      Alcotest.(check bool) "eop" (i = 2) c.eop)
    cells

let test_roundtrip =
  qtest "segment/reassemble roundtrip"
    (QCheck.make
       ~print:(fun (pid, size) -> Printf.sprintf "pid=%d size=%d" pid size)
       QCheck.Gen.(pair (int_range 0 1000) (int_range 1 10_000)))
    (fun (pid, size) ->
      let cells = An2.Host.segment { packet_id = pid; size } ~vc:1 in
      let r = An2.Host.Reassembly.create () in
      let rec feed = function
        | [] -> false
        | [ last ] ->
          (match An2.Host.Reassembly.push r last with
           | Some (Ok p) ->
             p.An2.Host.packet_id = pid
             && An2.Host.cells_needed p.An2.Host.size = An2.Host.cells_needed size
           | _ -> false)
        | c :: rest ->
          (match An2.Host.Reassembly.push r c with
           | None -> feed rest
           | Some _ -> false)
      in
      feed cells)

let test_reassembly_interleaved_vcs () =
  let r = An2.Host.Reassembly.create () in
  let a = An2.Host.segment { packet_id = 1; size = 100 } ~vc:1 in
  let b = An2.Host.segment { packet_id = 2; size = 100 } ~vc:2 in
  (* Interleave the two circuits' cells. *)
  let completed = ref 0 in
  List.iter2
    (fun ca cb ->
      List.iter
        (fun c ->
          match An2.Host.Reassembly.push r c with
          | Some (Ok _) -> incr completed
          | Some (Error e) -> Alcotest.fail e
          | None -> ())
        [ ca; cb ])
    a b;
  Alcotest.(check int) "both complete" 2 !completed;
  Alcotest.(check int) "no leftovers" 0 (An2.Host.Reassembly.partial_circuits r)

let test_reassembly_detects_gap () =
  let r = An2.Host.Reassembly.create () in
  let cells = An2.Host.segment { packet_id = 1; size = 200 } ~vc:1 in
  (* Drop the second cell. *)
  let dropped = List.filteri (fun i _ -> i <> 1) cells in
  let saw_error = ref false in
  List.iter
    (fun c ->
      match An2.Host.Reassembly.push r c with
      | Some (Error _) -> saw_error := true
      | _ -> ())
    dropped;
  Alcotest.(check bool) "gap detected" true !saw_error

let test_reassembly_mid_packet_start () =
  let r = An2.Host.Reassembly.create () in
  match An2.Host.Reassembly.push r { vc = 1; packet_id = 5; seq = 3; eop = false } with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "must reject mid-packet start"

(* ------------------------------------------------------------------ *)
(* Network circuit management *)

let make_net () =
  let g = Topo.Build.src_lan () in
  (g, An2.Network.create ~frame:32 g)

let path_is_connected net (vc : An2.Network.vc) =
  let g = An2.Network.graph net in
  let entries = An2.Network.table_entries vc in
  List.length entries = List.length vc.switches
  && List.for_all
       (fun (s, (in_l, out_l)) ->
         let touches lid =
           let l = Topo.Graph.link g lid in
           l.Topo.Graph.a.node = Topo.Graph.Switch s
           || l.Topo.Graph.b.node = Topo.Graph.Switch s
         in
         touches in_l && touches out_l)
       entries

let test_setup_best_effort () =
  let _, net = make_net () in
  match An2.Network.setup_best_effort net ~src_host:0 ~dst_host:12 with
  | Error e -> Alcotest.fail e
  | Ok vc ->
    Alcotest.(check bool) "path connected" true (path_is_connected net vc);
    Alcotest.(check int) "links = switches + 1"
      (List.length vc.switches + 1)
      (List.length vc.links);
    (* Every switch on the path has a table entry. *)
    List.iter
      (fun s ->
        Alcotest.(check bool) "has entry" true
          (An2.Network.next_hop net ~switch:s ~vc_id:vc.vc_id <> None))
      vc.switches;
    Alcotest.(check int) "registered" 1 (An2.Network.vc_count net)

let test_setup_uses_shortest_path () =
  let g = Topo.Build.linear 4 in
  let h1, h2 = Topo.Build.with_host_pair g in
  let net = An2.Network.create g in
  match An2.Network.setup_best_effort net ~src_host:h1 ~dst_host:h2 with
  | Error e -> Alcotest.fail e
  | Ok vc -> Alcotest.(check (list int)) "chain path" [ 0; 1; 2; 3 ] vc.switches

let test_teardown () =
  let _, net = make_net () in
  let vc =
    match An2.Network.setup_best_effort net ~src_host:0 ~dst_host:12 with
    | Ok vc -> vc
    | Error e -> Alcotest.fail e
  in
  An2.Network.teardown net vc;
  Alcotest.(check int) "unregistered" 0 (An2.Network.vc_count net);
  List.iter
    (fun s ->
      Alcotest.(check (option (pair int int))) "entry gone" None
        (An2.Network.next_hop net ~switch:s ~vc_id:vc.vc_id))
    vc.switches

(* Vc ids are never reused: not after a teardown, not across the
   registration kinds, not after a save and restore. A timer that kept
   only an id relies on it. *)
let test_vc_ids_fresh () =
  let g, net = make_net () in
  let register net =
    An2.Network.register_best_effort net ~src_host:0 ~dst_host:12
  in
  let a = register net in
  An2.Network.teardown net a;
  let b = register net in
  let c =
    match An2.Network.find_route net ~src_host:1 ~dst_host:12 with
    | Ok (switches, links) ->
      An2.Network.register_guaranteed net ~src_host:1 ~dst_host:12 ~cells:1
        ~switches ~links
    | Error e -> Alcotest.fail e
  in
  An2.Network.teardown net b;
  let net' = An2.Network.restore ~graph:g (An2.Network.save net) in
  let d = register net' in
  let ids = List.map (fun (vc : An2.Network.vc) -> vc.vc_id) [ a; b; c; d ] in
  Alcotest.(check int) "four distinct ids" 4
    (List.length (List.sort_uniq compare ids));
  Alcotest.(check bool) "torn down: gone" true
    (An2.Network.find_vc net a.vc_id = None && An2.Network.find_vc net' b.vc_id = None);
  Alcotest.(check bool) "the live one is itself" true
    (match An2.Network.find_vc net' d.vc_id with Some d' -> d' == d | None -> false)

let test_reroute_avoids_failure () =
  let g, net = make_net () in
  let vc =
    match An2.Network.setup_best_effort net ~src_host:0 ~dst_host:12 with
    | Ok vc -> vc
    | Error e -> Alcotest.fail e
  in
  let old_switches = vc.switches in
  (* Kill a middle switch of the path. *)
  let victim = List.nth old_switches (List.length old_switches / 2) in
  Topo.Graph.fail_switch g victim;
  (match An2.Network.reroute net vc with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "avoids victim" false (List.mem victim vc.switches);
  Alcotest.(check bool) "still connected" true (path_is_connected net vc)

let test_reroute_guaranteed_rejected () =
  let _, net = make_net () in
  let bwc = An2.Bandwidth_central.create net in
  match An2.Bandwidth_central.request bwc ~src_host:0 ~dst_host:12 ~cells:4 with
  | Error _ -> Alcotest.fail "admission should succeed"
  | Ok vc ->
    (match An2.Network.reroute net vc with
     | Error _ -> ()
     | Ok () -> Alcotest.fail "guaranteed reroute must go via bandwidth central")

let test_page_out_in () =
  let _, net = make_net () in
  let vc =
    match An2.Network.setup_best_effort net ~src_host:0 ~dst_host:12 with
    | Ok vc -> vc
    | Error e -> Alcotest.fail e
  in
  let s0 = List.hd vc.switches in
  An2.Network.page_out net vc;
  Alcotest.(check (option (pair int int))) "entry reclaimed" None
    (An2.Network.next_hop net ~switch:s0 ~vc_id:vc.vc_id);
  Alcotest.(check bool) "marked" true vc.paged_out;
  (match An2.Network.page_in net vc with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "entry restored" true
    (An2.Network.next_hop net ~switch:(List.hd vc.switches) ~vc_id:vc.vc_id <> None)

let test_no_route_when_partitioned () =
  let g = Topo.Build.linear 2 in
  let h1, h2 = Topo.Build.with_host_pair g in
  let net = An2.Network.create g in
  Topo.Graph.fail_link g 0;
  match An2.Network.setup_best_effort net ~src_host:h1 ~dst_host:h2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "must fail across partition"

(* ------------------------------------------------------------------ *)
(* Bandwidth central *)

let test_admission_accounting () =
  let _, net = make_net () in
  let bwc = An2.Bandwidth_central.create net in
  match An2.Bandwidth_central.request bwc ~src_host:0 ~dst_host:12 ~cells:5 with
  | Error _ -> Alcotest.fail "should admit"
  | Ok vc ->
    List.iter
      (fun lid ->
        Alcotest.(check int) "reserved on path" 5 (An2.Bandwidth_central.reserved bwc lid))
      vc.An2.Network.links;
    An2.Bandwidth_central.release bwc vc;
    List.iter
      (fun lid ->
        Alcotest.(check int) "released" 0 (An2.Bandwidth_central.reserved bwc lid))
      vc.An2.Network.links

let test_admission_denies_over_capacity () =
  (* A 2-switch network: the host links are the bottleneck (32-slot
     frame). *)
  let g = Topo.Build.linear 2 in
  let h1, h2 = Topo.Build.with_host_pair g in
  let net = An2.Network.create ~frame:32 g in
  let bwc = An2.Bandwidth_central.create net in
  (match An2.Bandwidth_central.request bwc ~src_host:h1 ~dst_host:h2 ~cells:30 with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "first fits");
  match An2.Bandwidth_central.request bwc ~src_host:h1 ~dst_host:h2 ~cells:10 with
  | Error An2.Bandwidth_central.No_capacity -> ()
  | Error An2.Bandwidth_central.No_route -> Alcotest.fail "wrong denial"
  | Ok _ -> Alcotest.fail "must deny"

let test_admission_denies_no_route () =
  let g = Topo.Build.linear 2 in
  let h1, h2 = Topo.Build.with_host_pair g in
  let net = An2.Network.create g in
  let bwc = An2.Bandwidth_central.create net in
  Topo.Graph.fail_link g 0;
  match An2.Bandwidth_central.request bwc ~src_host:h1 ~dst_host:h2 ~cells:1 with
  | Error An2.Bandwidth_central.No_route -> ()
  | _ -> Alcotest.fail "expected no-route denial"

let test_admission_routes_around_saturation () =
  (* Hosts use only their primary attachment (the alternate is a
     standby, Figure 1), so its 32-slot frame admits exactly four
     8-cell circuits; the redundant switch fabric behind it must not
     deny any of those four even though they share backbone links. *)
  let _, net = make_net () in
  let bwc = An2.Bandwidth_central.create net in
  let grants = ref 0 and denied_capacity = ref 0 in
  for _ = 1 to 6 do
    match An2.Bandwidth_central.request bwc ~src_host:0 ~dst_host:12 ~cells:8 with
    | Ok _ -> incr grants
    | Error An2.Bandwidth_central.No_capacity -> incr denied_capacity
    | Error An2.Bandwidth_central.No_route -> ()
  done;
  Alcotest.(check int) "host link admits four" 4 !grants;
  Alcotest.(check int) "rest denied on capacity" 2 !denied_capacity

let test_schedules_valid_after_traffic =
  qtest ~count:25 "schedules stay valid and consistent"
    (QCheck.make QCheck.Gen.(int_range 0 5000))
    (fun seed ->
      let rng = Netsim.Rng.create seed in
      let g = Topo.Build.src_lan () in
      let net = An2.Network.create ~frame:16 g in
      let bwc = An2.Bandwidth_central.create net in
      let granted = ref [] in
      for _ = 1 to 20 do
        let src = Netsim.Rng.int rng 24 and dst = Netsim.Rng.int rng 24 in
        if src <> dst then begin
          let cells = 1 + Netsim.Rng.int rng 4 in
          match An2.Bandwidth_central.request bwc ~src_host:src ~dst_host:dst ~cells with
          | Ok vc -> granted := vc :: !granted
          | Error _ -> ()
        end
      done;
      (* Release a random half. *)
      List.iteri
        (fun i vc -> if i mod 2 = 0 then An2.Bandwidth_central.release bwc vc)
        !granted;
      let ok = ref true in
      for s = 0 to Topo.Graph.switch_count g - 1 do
        if not (Frame.Schedule.valid (An2.Network.switch_schedule net s)) then
          ok := false
      done;
      !ok)

let test_guaranteed_reroute_after_failure () =
  let g, net = make_net () in
  let bwc = An2.Bandwidth_central.create net in
  match An2.Bandwidth_central.request bwc ~src_host:0 ~dst_host:12 ~cells:4 with
  | Error _ -> Alcotest.fail "admit"
  | Ok vc ->
    let old_id = vc.An2.Network.vc_id in
    let victim = List.nth vc.An2.Network.switches 1 in
    Topo.Graph.fail_switch g victim;
    (match An2.Bandwidth_central.reroute_after_failure bwc vc with
     | Ok () -> ()
     | Error d ->
       Alcotest.fail (Format.asprintf "%a" An2.Bandwidth_central.pp_denial d));
    Alcotest.(check int) "one circuit" 1 (An2.Network.vc_count net);
    (* Regression for the bug E28 found: re-admission must rewire the
       SAME record (same id, fresh path), or hosts and line cards keep
       a stale route and black-hole traffic after the repair. *)
    Alcotest.(check int) "identity preserved" old_id vc.An2.Network.vc_id;
    Alcotest.(check bool) "avoids the dead switch" false
      (List.mem victim vc.An2.Network.switches);
    Alcotest.(check bool) "tables follow the record" true
      (An2.Network.next_hop net
         ~switch:(List.hd vc.An2.Network.switches)
         ~vc_id:old_id
       <> None);
    (* Capacity accounting reflects only the new path. *)
    List.iter
      (fun lid ->
        Alcotest.(check int) "new path reserved" 4
          (An2.Bandwidth_central.reserved bwc lid))
      vc.An2.Network.links

let test_guaranteed_reroute_dissolves_on_denial () =
  (* A 2-switch chain: killing the middle link leaves no alternative,
     so re-admission must dissolve the circuit cleanly. *)
  let g = Topo.Build.linear 2 in
  let h1, h2 = Topo.Build.with_host_pair g in
  let net = An2.Network.create ~frame:16 g in
  let bwc = An2.Bandwidth_central.create net in
  match An2.Bandwidth_central.request bwc ~src_host:h1 ~dst_host:h2 ~cells:4 with
  | Error _ -> Alcotest.fail "admit"
  | Ok vc ->
    Topo.Graph.fail_link g 0;
    (match An2.Bandwidth_central.reroute_after_failure bwc vc with
     | Error _ -> ()
     | Ok () -> Alcotest.fail "must deny across the partition");
    Alcotest.(check int) "circuit dissolved" 0 (An2.Network.vc_count net);
    (* All bandwidth returned. *)
    List.iter
      (fun (l : Topo.Graph.link) ->
        Alcotest.(check int) "nothing reserved" 0
          (An2.Bandwidth_central.reserved bwc l.link_id))
      (Topo.Graph.links g)

(* The hop walker against [table_entries]: [install] and [uninstall]
   walk the path in place; each reference applies the listed pairs one
   by one. Random switch and link lists, repeats and unequal lengths
   included, so a switch the path visits twice and a path that ends
   early are both covered. Hop by hop, [Lifecycle]'s crawl installs
   hop [i] from the path as arrays: switch [i] between links [i] and
   [i + 1], which must be [table_entries]' [i]-th pair. *)
let bindings net =
  List.init
    (Topo.Graph.switch_count (An2.Network.graph net))
    (An2.Network.table_bindings net)

let test_hop_walker_tables =
  qtest ~count:300 "hop walker = table_entries (tables)"
    QCheck.(
      pair
        (list_of_size Gen.(int_bound 8) (int_bound 5))
        (list_of_size Gen.(int_bound 10) (int_bound 50)))
    (fun (switches, links) ->
      let g = Topo.Build.linear 6 in
      let fresh () =
        let net = An2.Network.create ~frame:16 g in
        let vc =
          An2.Network.register_guaranteed ~install:false net ~src_host:0
            ~dst_host:1 ~cells:1 ~switches ~links
        in
        (net, vc)
      in
      let net, vc = fresh () and ref_net, ref_vc = fresh () in
      let entries = An2.Network.table_entries ref_vc in
      let set_ref (s, (in_link, out_link)) =
        An2.Network.install_hop ref_net ref_vc ~switch:s ~in_link ~out_link
      in
      let clear () =
        An2.Network.uninstall net vc;
        List.iter
          (fun (s, _) -> An2.Network.uninstall_entry ref_net ref_vc ~switch:s)
          entries
      in
      let switch_at = Array.of_list switches and link_at = Array.of_list links in
      let hops = min (Array.length switch_at) (Array.length link_at - 1) in
      let crawl_ok =
        List.length entries = max 0 hops
        && List.for_all
             (fun i ->
               An2.Network.install_hop net vc ~switch:switch_at.(i)
                 ~in_link:link_at.(i) ~out_link:link_at.(i + 1);
               set_ref (List.nth entries i);
               bindings net = bindings ref_net)
             (List.init (max 0 hops) Fun.id)
      in
      clear ();
      let cleared = bindings net = bindings ref_net in
      An2.Network.install net vc;
      List.iter set_ref entries;
      let installed = bindings net = bindings ref_net in
      clear ();
      crawl_ok && cleared && installed && bindings net = bindings ref_net)

(* Schedule placement ([Bandwidth_central]) and removal
   ([remove_schedule_entries]) walk the path too. The reference network
   takes the same routes and places and removes the same cells pair
   by pair over [table_entries]. *)
let schedule_cells net =
  List.init
    (Topo.Graph.switch_count (An2.Network.graph net))
    (fun s ->
      let sched = An2.Network.switch_schedule net s in
      List.init (Frame.Schedule.frame sched) (fun slot ->
          List.init (Frame.Schedule.n sched) (fun input ->
              Frame.Schedule.output_at sched ~slot ~input)))

let test_hop_walker_schedules =
  qtest ~count:100 "hop walker = table_entries (schedules)"
    QCheck.(
      list_of_size Gen.(int_range 1 12)
        (triple (int_bound 15) (int_bound 15) (int_range 1 4)))
    (fun requests ->
      let g, _ = Topo.Build.fat_tree ~k:4 in
      let net = An2.Network.create ~frame:16 g in
      let ref_net = An2.Network.create ~frame:16 g in
      let bwc = An2.Bandwidth_central.create net in
      let pairs f (vc : An2.Network.vc) =
        List.iter
          (fun (s, (in_link, out_link)) ->
            f (An2.Network.switch_schedule ref_net s)
              (An2.Network.port_at ref_net s in_link)
              (An2.Network.port_at ref_net s out_link))
          (An2.Network.table_entries vc)
      in
      let admitted =
        List.filter_map
          (fun (src_host, dst, cells) ->
            let dst_host = if dst = src_host then (dst + 1) mod 16 else dst in
            match An2.Bandwidth_central.request bwc ~src_host ~dst_host ~cells with
            | Error _ -> None
            | Ok vc ->
              let ref_vc =
                An2.Network.register_guaranteed ref_net ~src_host ~dst_host ~cells
                  ~switches:vc.switches ~links:vc.links
              in
              pairs
                (fun sched input output ->
                  match Frame.Schedule.add_reservation sched ~input ~output ~cells with
                  | Ok _ -> ()
                  | Error e -> failwith e)
                ref_vc;
              Some (vc, ref_vc, cells))
          requests
      in
      let placed = schedule_cells net = schedule_cells ref_net in
      List.iteri
        (fun i (vc, ref_vc, cells) ->
          if i mod 2 = 0 then begin
            An2.Network.remove_schedule_entries net vc cells;
            pairs
              (fun sched input output ->
                for _ = 1 to cells do
                  assert (Frame.Schedule.remove_cell sched ~input ~output)
                done)
              ref_vc
          end)
        admitted;
      placed && schedule_cells net = schedule_cells ref_net)

(* A circuit's routing-table entries cost their bindings and nothing
   else: installing a 5-switch circuit allocates five 4-word hash
   buckets and five 3-word link pairs, and uninstalling it nothing. *)
let test_install_allocation_pinned () =
  let g = Topo.Build.linear 5 in
  let h1, h2 = Topo.Build.with_host_pair g in
  let net = An2.Network.create ~frame:16 g in
  let switches, links =
    match An2.Network.find_route net ~src_host:h1 ~dst_host:h2 with
    | Ok route -> route
    | Error e -> Alcotest.fail e
  in
  let vc =
    An2.Network.register_guaranteed ~install:false net ~src_host:h1 ~dst_host:h2
      ~cells:1 ~switches ~links
  in
  Alcotest.(check int) "5 switches" 5 (List.length switches);
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let overhead = words ignore in
  let count () = List.length (List.concat (bindings net)) in
  let installed = words (fun () -> An2.Network.install net vc) -. overhead in
  Alcotest.(check int) "5 bindings" 5 (count ());
  let uninstalled = words (fun () -> An2.Network.uninstall net vc) -. overhead in
  Alcotest.(check int) "no bindings left" 0 (count ());
  Alcotest.(check (float 0.)) "install: 5 x (4 + 3) words" 35. installed;
  Alcotest.(check (float 0.)) "uninstall: nothing" 0. uninstalled

(* A dissolving reroute releases the circuit's schedule cells once.
   Two 3-cell circuits leave host 0 through the same port pair of
   switch 0; the far one loses link 1-2 and has nowhere to go. Its
   cells used to be removed twice, the second time taking the near
   circuit's cells while the near circuit kept its reservations. *)
let test_reroute_dissolve_spares_neighbors () =
  let g = Topo.Build.linear 3 in
  let host s =
    let h = Topo.Graph.add_host g in
    ignore (Topo.Graph.connect g (Host h) (Switch s));
    h
  in
  let h0 = host 0 and h1 = host 1 and h2 = host 2 in
  let net = An2.Network.create ~frame:16 g in
  let bwc = An2.Bandwidth_central.create net in
  let admit dst =
    match An2.Bandwidth_central.request bwc ~src_host:h0 ~dst_host:dst ~cells:3 with
    | Ok vc -> vc
    | Error _ -> Alcotest.fail "admit"
  in
  let near = admit h1 and far = admit h2 in
  let cells s = Frame.Schedule.cell_count (An2.Network.switch_schedule net s) in
  Alcotest.(check int) "both circuits at switch 0" 6 (cells 0);
  Topo.Graph.fail_link g (Option.get (Topo.Graph.switch_link g 1 2));
  (match An2.Bandwidth_central.reroute_after_failure bwc far with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "must dissolve across the partition");
  Alcotest.(check int) "near circuit alone" 1 (An2.Network.vc_count net);
  Alcotest.(check int) "near keeps its cells at switch 0" 3 (cells 0);
  Alcotest.(check int) "near keeps its cells at switch 1" 3 (cells 1);
  List.iter
    (fun lid ->
      Alcotest.(check int) "near keeps its reservation" 3
        (An2.Bandwidth_central.reserved bwc lid))
    near.An2.Network.links;
  for s = 0 to 2 do
    Alcotest.(check bool) "schedule valid" true
      (Frame.Schedule.valid (An2.Network.switch_schedule net s))
  done

(* Releasing a circuit's schedule cells a second time is a double
   release: it must raise, not take cells of whatever else holds the
   port pair. *)
let test_double_cell_release_raises () =
  let g = Topo.Build.linear 2 in
  let h1, h2 = Topo.Build.with_host_pair g in
  let net = An2.Network.create ~frame:16 g in
  let bwc = An2.Bandwidth_central.create net in
  match An2.Bandwidth_central.request bwc ~src_host:h1 ~dst_host:h2 ~cells:4 with
  | Error _ -> Alcotest.fail "admit"
  | Ok vc ->
    An2.Network.remove_schedule_entries net vc 4;
    Alcotest.(check int) "cells released" 0
      (Frame.Schedule.cell_count (An2.Network.switch_schedule net 0));
    Alcotest.(check bool) "second release raises" true
      (match An2.Network.remove_schedule_entries net vc 4 with
       | () -> false
       | exception An2.Network.Missing_cell { switch = 0; _ } -> true)

let test_e2e_conservation =
  qtest ~count:20 "netrun conserves best-effort cells"
    (QCheck.make
       ~print:(fun (seed, hops, rate) ->
         Printf.sprintf "seed=%d hops=%d rate=%.2f" seed hops rate)
       QCheck.Gen.(
         triple (int_range 0 5000) (int_range 1 4) (float_range 0.1 1.0)))
    (fun (seed, hops, rate) ->
      let g = Topo.Build.linear hops in
      let h1, h2 = Topo.Build.with_host_pair g in
      let net = An2.Network.create ~frame:32 g in
      match An2.Network.setup_best_effort net ~src_host:h1 ~dst_host:h2 with
      | Error _ -> false
      | Ok vc ->
        let p = { An2.Netrun.default_params with seed } in
        let r =
          An2.Netrun.run net p
            ~sources:[ An2.Netrun.Paced_be (vc, rate) ]
            ~duration:(Netsim.Time.ms 3) ()
        in
        let s = List.assoc vc.vc_id r.per_vc in
        (* No failures: nothing dropped; everything sent is delivered
           or still in flight (bounded by the credit windows). *)
        s.dropped = 0
        && s.delivered <= s.sent
        && s.sent - s.delivered <= (hops + 1) * An2.Netrun.be_credits
        && Array.fold_left ( + ) 0 s.window_delivered = s.delivered)

(* ------------------------------------------------------------------ *)
(* Pager *)

let pager_world () =
  let _, net = make_net () in
  let vcs =
    List.filter_map
      (fun i ->
        match An2.Network.setup_best_effort net ~src_host:i ~dst_host:(12 + i) with
        | Ok vc -> Some vc
        | Error _ -> None)
      [ 0; 1; 2; 3 ]
  in
  (net, vcs, An2.Pager.create net ~idle_after:(Netsim.Time.ms 10))

let test_pager_sweeps_idle () =
  let _, vcs, pager = pager_world () in
  (* Two circuits stay active, two go quiet. *)
  List.iteri
    (fun i (vc : An2.Network.vc) ->
      if i < 2 then An2.Pager.note_activity pager ~vc_id:vc.vc_id ~now:(Netsim.Time.ms 95))
    vcs;
  let reclaimed = An2.Pager.sweep pager ~now:(Netsim.Time.ms 100) in
  Alcotest.(check int) "two reclaimed" 2 reclaimed;
  Alcotest.(check int) "two resident" 2 (An2.Pager.resident pager);
  Alcotest.(check int) "two paged" 2 (An2.Pager.paged pager)

let test_pager_sweep_idempotent () =
  let _, _, pager = pager_world () in
  ignore (An2.Pager.sweep pager ~now:(Netsim.Time.ms 100));
  Alcotest.(check int) "second sweep reclaims nothing" 0
    (An2.Pager.sweep pager ~now:(Netsim.Time.ms 101))

let test_pager_activity_protects () =
  let _, vcs, pager = pager_world () in
  List.iter
    (fun (vc : An2.Network.vc) ->
      An2.Pager.note_activity pager ~vc_id:vc.vc_id ~now:(Netsim.Time.ms 99))
    vcs;
  Alcotest.(check int) "nothing reclaimed" 0
    (An2.Pager.sweep pager ~now:(Netsim.Time.ms 100))

let test_pager_touch_pages_in () =
  let net, vcs, pager = pager_world () in
  ignore (An2.Pager.sweep pager ~now:(Netsim.Time.ms 100));
  let vc = List.hd vcs in
  (match An2.Pager.touch pager ~vc_id:vc.vc_id ~now:(Netsim.Time.ms 200) with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "resident again" false vc.paged_out;
  Alcotest.(check bool) "entries restored" true
    (An2.Network.next_hop net ~switch:(List.hd vc.switches) ~vc_id:vc.vc_id
     <> None);
  (* And it is now protected from the next sweep. *)
  Alcotest.(check int) "protected after touch" 0
    (An2.Pager.sweep pager ~now:(Netsim.Time.ms 205))

let test_pager_touch_unknown () =
  let _, _, pager = pager_world () in
  match An2.Pager.touch pager ~vc_id:999 ~now:0 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown circuit must fail"

(* ------------------------------------------------------------------ *)
(* Packet sources end to end *)

let test_packets_end_to_end () =
  let g = Topo.Build.linear 3 in
  let h1, h2 = Topo.Build.with_host_pair g in
  let net = An2.Network.create ~frame:32 g in
  match An2.Network.setup_best_effort net ~src_host:h1 ~dst_host:h2 with
  | Error e -> Alcotest.fail e
  | Ok vc ->
    let r =
      An2.Netrun.run net An2.Netrun.default_params
        ~sources:[ An2.Netrun.Packets_be (vc, 0.5, 1500) ]
        ~duration:(Netsim.Time.ms 10) ()
    in
    let s = List.assoc vc.vc_id r.per_vc in
    Alcotest.(check bool) "packets flowed" true (s.packets_sent > 50);
    (* Every fully-sent packet completes (a trailing one may be in
       flight at the horizon). *)
    Alcotest.(check bool)
      (Printf.sprintf "delivered %d of %d" s.packets_delivered s.packets_sent)
      true
      (s.packets_delivered >= s.packets_sent - 2);
    (* A 1500-byte packet is 32 cells: its latency must exceed 31 cell
       times of serialization. *)
    Alcotest.(check bool) "packet latency > serialization floor" true
      (s.packet_mean_latency_us > 31.0 *. 0.681);
    Alcotest.(check int) "no cell drops" 0 s.dropped

let test_packets_share_with_cbr () =
  let g = Topo.Build.linear 2 in
  let h1, h2 = Topo.Build.with_host_pair g in
  let net = An2.Network.create ~frame:16 g in
  let bwc = An2.Bandwidth_central.create net in
  let cbr =
    match An2.Bandwidth_central.request bwc ~src_host:h1 ~dst_host:h2 ~cells:8 with
    | Ok vc -> vc
    | Error _ -> Alcotest.fail "admit"
  in
  let be =
    match An2.Network.setup_best_effort net ~src_host:h1 ~dst_host:h2 with
    | Ok vc -> vc
    | Error e -> Alcotest.fail e
  in
  let r =
    An2.Netrun.run net An2.Netrun.default_params
      ~sources:[ An2.Netrun.Cbr cbr; An2.Netrun.Packets_be (be, 0.4, 576) ]
      ~duration:(Netsim.Time.ms 10) ()
  in
  let sc = List.assoc cbr.An2.Network.vc_id r.per_vc in
  let sb = List.assoc be.An2.Network.vc_id r.per_vc in
  Alcotest.(check int) "cbr clean" 0 sc.dropped;
  Alcotest.(check bool) "packets delivered" true (sb.packets_delivered > 100)

(* ------------------------------------------------------------------ *)
(* Signaling *)

let signaling_net hops =
  let g = Topo.Build.linear hops in
  let h1, h2 = Topo.Build.with_host_pair g in
  (An2.Network.create g, h1, h2)

let test_signaling_all_delivered_in_order () =
  let net, h1, h2 = signaling_net 4 in
  match
    An2.Signaling.setup_with_data net ~src_host:h1 ~dst_host:h2
      An2.Signaling.default_params
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check int) "all delivered" 200 r.delivered;
    Alcotest.(check bool) "in order" true r.in_order;
    Alcotest.(check bool) "some cells waited for the entry" true
      (r.max_buffered_awaiting_entry > 0)

let test_signaling_setup_scales_with_hops () =
  let setup hops =
    let net, h1, h2 = signaling_net hops in
    match
      An2.Signaling.setup_with_data net ~src_host:h1 ~dst_host:h2
        An2.Signaling.default_params
    with
    | Ok r -> r.setup_time_us
    | Error e -> Alcotest.fail e
  in
  let s2 = setup 2 and s4 = setup 4 in
  (* Dominated by per-hop software: ~100us per switch. *)
  Alcotest.(check bool)
    (Printf.sprintf "%.0f ~ 2 * %.0f" s4 s2)
    true
    (abs_float (s4 -. (2.0 *. s2)) < 20.0)

let test_signaling_backlog_matches_software_delay () =
  (* At full rate, the first switch's backlog is one software delay's
     worth of cells (proc_delay / cell_time ~ 147). *)
  let net, h1, h2 = signaling_net 3 in
  match
    An2.Signaling.setup_with_data net ~src_host:h1 ~dst_host:h2
      An2.Signaling.default_params
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool)
      (Printf.sprintf "backlog %d ~ 147" r.max_buffered_awaiting_entry)
      true
      (abs (r.max_buffered_awaiting_entry - 147) <= 5

     )

let test_signaling_slow_source_never_queues () =
  (* A trickle source never catches the setup cell up. *)
  let net, h1, h2 = signaling_net 3 in
  match
    An2.Signaling.setup_with_data net ~src_host:h1 ~dst_host:h2
      { An2.Signaling.default_params with data_rate = 0.005; data_cells = 40 }
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check int) "delivered" 40 r.delivered;
    (* A handful of early cells outrun the setup cell and wait at
       successive switches, but nothing accumulates beyond that. *)
    Alcotest.(check bool) "minimal backlog" true
      (r.max_buffered_awaiting_entry <= 4)

let test_signaling_partitioned () =
  let g = Topo.Build.linear 2 in
  let h1, h2 = Topo.Build.with_host_pair g in
  let net = An2.Network.create g in
  Topo.Graph.fail_link g 0;
  match
    An2.Signaling.setup_with_data net ~src_host:h1 ~dst_host:h2
      An2.Signaling.default_params
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "must fail across a partition"

let test_signaling_link_dies_mid_crawl () =
  (* Kill the s1-s2 link while the setup cell is between s0 and s1:
     the crawl stalls, the circuit never completes, and the cells the
     source kept pumping toward the stall are dropped at the dead
     link. No recovery here by design — Lifecycle owns that. *)
  let net, h1, h2 = signaling_net 4 in
  match
    An2.Signaling.setup_with_data net ~src_host:h1 ~dst_host:h2
      ~fail_at:[ (Netsim.Time.us 150, 1) ]
      An2.Signaling.default_params
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "setup never completed" false r.setup_completed;
    Alcotest.(check int) "nothing delivered" 0 r.delivered;
    Alcotest.(check bool) "cells dropped at the dead link" true (r.dropped > 0)

let test_signaling_late_failure_after_setup () =
  (* A failure after the crawl has passed: the crawl completes at
     ~407 us, and the only link still carrying data after that is the
     last hop, draining the backlog that piled up behind the crawl
     until ~443 us. Killing it at 420 us means setup completes yet the
     tail of the stream is lost at the dead link. *)
  let net, h1, h2 = signaling_net 4 in
  match
    An2.Signaling.setup_with_data net ~src_host:h1 ~dst_host:h2
      ~fail_at:[ (Netsim.Time.us 420, 4) ]
      An2.Signaling.default_params
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "setup completed" true r.setup_completed;
    Alcotest.(check bool) "some cells lost" true (r.dropped > 0);
    Alcotest.(check bool) "some cells delivered first" true (r.delivered > 0);
    Alcotest.(check bool) "conservation" true
      (r.delivered + r.dropped <= An2.Signaling.default_params.data_cells)

(* ------------------------------------------------------------------ *)
(* Load rebalancing *)

let torus_with_clustered_hosts () =
  let g = Topo.Build.torus 4 4 in
  let mk s =
    let h = Topo.Graph.add_host g in
    ignore (Topo.Graph.connect g (Host h) (Switch s));
    h
  in
  let srcs = List.init 6 (fun _ -> mk 0) in
  let dsts = List.init 6 (fun _ -> mk 5) in
  let net = An2.Network.create g in
  List.iter2
    (fun a b ->
      match An2.Network.setup_best_effort net ~src_host:a ~dst_host:b with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    srcs dsts;
  net

let test_rebalance_loads_accounting () =
  let net = torus_with_clustered_hosts () in
  (* Deterministic shortest paths pile all six circuits onto one
     2-hop route. *)
  let s = An2.Rebalance.load_stats net in
  Alcotest.(check int) "pile-up" 6 s.max_load

let test_rebalance_spreads () =
  let net = torus_with_clustered_hosts () in
  let moves = An2.Rebalance.rebalance net in
  let s = An2.Rebalance.load_stats net in
  Alcotest.(check bool) "moved some" true (moves > 0);
  Alcotest.(check int) "optimal split over the two equal paths" 3 s.max_load

let test_rebalance_idempotent () =
  let net = torus_with_clustered_hosts () in
  ignore (An2.Rebalance.rebalance net);
  Alcotest.(check int) "second pass does nothing" 0 (An2.Rebalance.rebalance net)

let test_rebalance_respects_stretch () =
  (* Circuits between adjacent switches with no equal-length detour
     must stay put. *)
  let g = Topo.Build.ring 8 in
  let mk s =
    let h = Topo.Graph.add_host g in
    ignore (Topo.Graph.connect g (Host h) (Switch s));
    h
  in
  let pairs = List.init 4 (fun _ -> (mk 0, mk 1)) in
  let net = An2.Network.create g in
  List.iter
    (fun (a, b) ->
      match An2.Network.setup_best_effort net ~src_host:a ~dst_host:b with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    pairs;
  Alcotest.(check int) "no moves within stretch 1" 0
    (An2.Rebalance.rebalance net);
  (* A generous stretch allowance lets them take the long way round. *)
  Alcotest.(check bool) "moves with stretch 6" true
    (An2.Rebalance.rebalance ~max_stretch:6 net > 0)

let test_rebalance_keeps_routes_valid () =
  let net = torus_with_clustered_hosts () in
  ignore (An2.Rebalance.rebalance net);
  An2.Network.iter_vcs net (fun vc ->
      Alcotest.(check bool) "table entries consistent" true
        (path_is_connected net vc))

(* ------------------------------------------------------------------ *)
(* Multicast *)

let test_multicast_tree_shape () =
  let _, net = make_net () in
  match An2.Multicast.build net ~source_host:0 ~dest_hosts:[ 6; 12; 18 ] with
  | Error e -> Alcotest.fail e
  | Ok mc ->
    (* A tree on k switches has k-1 links; ours spans the root plus
       the switches en route to each destination. *)
    let switches = Hashtbl.length mc.table in
    Alcotest.(check int) "tree edges" (switches - 1) (List.length mc.tree_links);
    (* Host links: 1 source + 3 destinations. *)
    Alcotest.(check int) "host links" 4 (List.length mc.host_links);
    (* Replication happens somewhere: total out-links exceed the
       switch count only if some switch fans out. *)
    let fanout =
      Hashtbl.fold (fun _ (_, outs) acc -> acc + List.length outs) mc.table 0
    in
    Alcotest.(check int) "every link is some switch's output"
      (List.length mc.tree_links + 3)
      fanout

let test_multicast_beats_unicast =
  qtest ~count:40 "tree transmissions <= unicast sum"
    (QCheck.make QCheck.Gen.(int_range 0 5000))
    (fun seed ->
      let rng = Netsim.Rng.create seed in
      let _, net = make_net () in
      let dests =
        List.sort_uniq compare
          (List.init 5 (fun _ -> 1 + Netsim.Rng.int rng 23))
      in
      match
        ( An2.Multicast.build net ~source_host:0 ~dest_hosts:dests,
          An2.Multicast.unicast_transmissions net ~source_host:0
            ~dest_hosts:dests )
      with
      | Ok mc, Ok unicast -> An2.Multicast.link_transmissions mc <= unicast
      | _ -> false)

let test_multicast_shared_path_economy () =
  (* Chain 0-1-2-3 with the group at the far end: unicast pays the
     whole path once per destination, the tree pays it once. *)
  let g = Topo.Build.linear 4 in
  let src = Topo.Graph.add_host g in
  ignore (Topo.Graph.connect g (Host src) (Switch 0));
  let dests =
    List.map
      (fun _ ->
        let h = Topo.Graph.add_host g in
        ignore (Topo.Graph.connect g (Host h) (Switch 3));
        h)
      [ 1; 2; 3 ]
  in
  let net = An2.Network.create g in
  match An2.Multicast.build net ~source_host:src ~dest_hosts:dests with
  | Error e -> Alcotest.fail e
  | Ok mc ->
    (* 1 source link + 3 switch links + 3 destination links = 7 vs
       unicast 3 * (1 + 3 + 1) = 15. *)
    Alcotest.(check int) "tree cost" 7 (An2.Multicast.link_transmissions mc);
    (match
       An2.Multicast.unicast_transmissions net ~source_host:src ~dest_hosts:dests
     with
     | Ok u -> Alcotest.(check int) "unicast cost" 15 u
     | Error e -> Alcotest.fail e)

let test_multicast_delivery () =
  let _, net = make_net () in
  match An2.Multicast.build net ~source_host:0 ~dest_hosts:[ 6; 12; 18 ] with
  | Error e -> Alcotest.fail e
  | Ok mc ->
    let d = An2.Multicast.simulate net mc ~rate:0.1 ~duration:(Netsim.Time.ms 2) in
    Alcotest.(check bool) "every destination got every cell" true d.delivered_all;
    Alcotest.(check bool) "cells flowed" true (d.cells_sent > 100);
    (* Economy shows up in crossings per cell. *)
    Alcotest.(check int) "crossings = cost * cells"
      (An2.Multicast.link_transmissions mc * d.cells_sent)
      d.link_cell_crossings;
    List.iter
      (fun (_, l) -> Alcotest.(check bool) "latency positive" true (l > 0.0))
      d.per_dest_latency_us

let test_multicast_rebuild_after_failure () =
  let g, net = make_net () in
  match An2.Multicast.build net ~source_host:0 ~dest_hosts:[ 6; 12 ] with
  | Error e -> Alcotest.fail e
  | Ok mc ->
    (* Kill a non-root switch of the tree. *)
    let victim =
      Hashtbl.fold
        (fun s _ acc -> if s <> mc.root then Some s else acc)
        mc.table None
    in
    (match victim with
     | None -> Alcotest.fail "tree too small"
     | Some v ->
       Topo.Graph.fail_switch g v;
       (match An2.Multicast.rebuild_after_failure net mc with
        | Ok mc' ->
          Alcotest.(check bool) "avoids victim" false (Hashtbl.mem mc'.table v);
          let d =
            An2.Multicast.simulate net mc' ~rate:0.1
              ~duration:(Netsim.Time.ms 1)
          in
          Alcotest.(check bool) "still delivers" true d.delivered_all
        | Error e -> Alcotest.fail e))

let test_multicast_validation () =
  let _, net = make_net () in
  (match An2.Multicast.build net ~source_host:0 ~dest_hosts:[] with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "empty group must fail");
  let g2 = Topo.Build.linear 2 in
  let h1, h2 = Topo.Build.with_host_pair g2 in
  let net2 = An2.Network.create g2 in
  Topo.Graph.fail_link g2 0;
  (match An2.Multicast.build net2 ~source_host:h1 ~dest_hosts:[ h2 ] with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "partitioned group must fail");
  (* Naming the source, or a host twice, would count a delivery twice
     and inflate the tree's saving over unicast. *)
  List.iter
    (fun (what, dests) ->
      (match An2.Multicast.build net ~source_host:0 ~dest_hosts:dests with
       | Error _ -> ()
       | Ok _ -> Alcotest.failf "build accepted %s" what);
      match An2.Multicast.unicast_transmissions net ~source_host:0 ~dest_hosts:dests with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "unicast_transmissions accepted %s" what)
    [ ("the source as a destination", [ 3; 0; 6 ]); ("a repeated destination", [ 3; 6; 3 ]) ]

(* ------------------------------------------------------------------ *)
(* End-to-end runs *)

let test_e2e_cbr_latency_bound () =
  let hops = 3 in
  let g = Topo.Build.linear hops in
  let h1, h2 = Topo.Build.with_host_pair g in
  let frame = 32 in
  let net = An2.Network.create ~frame g in
  let bwc = An2.Bandwidth_central.create net in
  match An2.Bandwidth_central.request bwc ~src_host:h1 ~dst_host:h2 ~cells:4 with
  | Error _ -> Alcotest.fail "admit"
  | Ok vc ->
    let p = An2.Netrun.default_params in
    let r =
      An2.Netrun.run net p ~sources:[ An2.Netrun.Cbr vc ]
        ~duration:(Netsim.Time.ms 10) ()
    in
    let s = List.assoc vc.An2.Network.vc_id r.per_vc in
    Alcotest.(check int) "no drops" 0 s.dropped;
    Alcotest.(check bool) "delivered most" true
      (s.delivered > s.sent - 10 && s.delivered > 100);
    (* Paper bound: p * (2f + l), with p switches on the path. *)
    let f = Netsim.Time.to_us (frame * p.cell_time) in
    let bound = float_of_int (List.length vc.An2.Network.switches) *. ((2.0 *. f) +. 1.0) in
    Alcotest.(check bool)
      (Printf.sprintf "max %.1f <= bound %.1f" s.max_latency_us bound)
      true
      (s.max_latency_us <= bound)

let test_e2e_guaranteed_backlog_bounded () =
  (* Several CBR circuits crossing a shared link: per-line-card
     guaranteed backlog must stay within the paper's ~4-frame bound
     (unsynchronized). *)
  let g = Topo.Build.linear 2 in
  let h1, h2 = Topo.Build.with_host_pair g in
  let frame = 16 in
  let net = An2.Network.create ~frame g in
  let bwc = An2.Bandwidth_central.create net in
  let vcs =
    List.filter_map
      (fun _ ->
        match An2.Bandwidth_central.request bwc ~src_host:h1 ~dst_host:h2 ~cells:4 with
        | Ok vc -> Some (An2.Netrun.Cbr vc)
        | Error _ -> None)
      [ 1; 2; 3 ]
  in
  Alcotest.(check int) "three admitted" 3 (List.length vcs);
  let p = { An2.Netrun.default_params with synchronized = false; skew_ppm = 500 } in
  let r = An2.Netrun.run net p ~sources:vcs ~duration:(Netsim.Time.ms 10) () in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f frames <= 4" r.guaranteed_backlog_frames)
    true
    (r.guaranteed_backlog_frames <= 4.0)

let test_e2e_best_effort_saturated () =
  let g = Topo.Build.linear 3 in
  let h1, h2 = Topo.Build.with_host_pair g in
  let net = An2.Network.create ~frame:32 g in
  match An2.Network.setup_best_effort net ~src_host:h1 ~dst_host:h2 with
  | Error e -> Alcotest.fail e
  | Ok vc ->
    let r =
      An2.Netrun.run net An2.Netrun.default_params
        ~sources:[ An2.Netrun.Saturated_be vc ] ~duration:(Netsim.Time.ms 5) ()
    in
    let s = List.assoc vc.An2.Network.vc_id r.per_vc in
    (* An empty network: the circuit should run near line rate. *)
    Alcotest.(check bool)
      (Printf.sprintf "delivered %d > 5000" s.delivered)
      true (s.delivered > 5000);
    Alcotest.(check int) "no drops" 0 s.dropped

let test_e2e_be_and_cbr_share () =
  (* Best-effort coexists with a guaranteed stream; the guaranteed
     stream keeps its latency bound. *)
  let g = Topo.Build.linear 2 in
  let h1, h2 = Topo.Build.with_host_pair g in
  let frame = 16 in
  let net = An2.Network.create ~frame g in
  let bwc = An2.Bandwidth_central.create net in
  let cbr =
    match An2.Bandwidth_central.request bwc ~src_host:h1 ~dst_host:h2 ~cells:8 with
    | Ok vc -> vc
    | Error _ -> Alcotest.fail "admit cbr"
  in
  let be =
    match An2.Network.setup_best_effort net ~src_host:h1 ~dst_host:h2 with
    | Ok vc -> vc
    | Error e -> Alcotest.fail e
  in
  let p = An2.Netrun.default_params in
  let r =
    An2.Netrun.run net p
      ~sources:[ An2.Netrun.Cbr cbr; An2.Netrun.Saturated_be be ]
      ~duration:(Netsim.Time.ms 10) ()
  in
  let sc = List.assoc cbr.An2.Network.vc_id r.per_vc in
  let sb = List.assoc be.An2.Network.vc_id r.per_vc in
  Alcotest.(check int) "cbr no drops" 0 sc.dropped;
  let f = Netsim.Time.to_us (frame * p.cell_time) in
  let bound = 2.0 *. ((2.0 *. f) +. 1.0) in
  Alcotest.(check bool) "cbr bound holds under BE load" true
    (sc.max_latency_us <= bound);
  Alcotest.(check bool) "be still progresses" true (sb.delivered > 1000)

let test_e2e_failover () =
  let g = Topo.Build.src_lan () in
  let net = An2.Network.create ~frame:32 g in
  match An2.Network.setup_best_effort net ~src_host:0 ~dst_host:12 with
  | Error e -> Alcotest.fail e
  | Ok vc ->
    let victim = List.nth vc.switches (List.length vc.switches / 2) in
    let t_fail = Netsim.Time.ms 3 in
    let t_fix = t_fail + Netsim.Time.us 500 in
    let r =
      An2.Netrun.run net An2.Netrun.default_params
        ~sources:[ An2.Netrun.Saturated_be vc ]
        ~events:[ (t_fail, An2.Netrun.Fail_switch victim); (t_fix, An2.Netrun.Reroute_be) ]
        ~duration:(Netsim.Time.ms 8) ()
    in
    let s = List.assoc vc.vc_id r.per_vc in
    Alcotest.(check bool) "some cells dropped in outage" true (s.dropped > 0);
    Alcotest.(check bool) "resumed after repair" true
      (s.delivered > (s.sent * 6) / 10);
    Alcotest.(check bool) "route moved" false (List.mem victim vc.switches)

let test_e2e_reroute_clears_guaranteed_backlog () =
  (* Diamond 0-{1,2}-3 with a guaranteed circuit over 0-1-3. Link 1-3
     fails and re-admission moves the circuit to 0-2-3, so switch 0's
     line card from the host carries it on both paths. The cells the
     reroute flushes must leave that line card's backlog: otherwise
     they count forever, and the new path's cells pile on top of
     them. *)
  let run ~failover =
    let g = Topo.Graph.create () in
    Topo.Graph.add_switches g 4;
    let connect a b = Topo.Graph.connect g (Switch a) (Switch b) in
    ignore (connect 0 1);
    ignore (connect 0 2);
    let l13 = connect 1 3 in
    ignore (connect 2 3);
    let h1 = Topo.Graph.add_host g and h2 = Topo.Graph.add_host g in
    ignore (Topo.Graph.connect g (Host h1) (Switch 0));
    ignore (Topo.Graph.connect g (Host h2) (Switch 3));
    let net = An2.Network.create ~frame:16 g in
    let bwc = An2.Bandwidth_central.create net in
    match An2.Bandwidth_central.request bwc ~src_host:h1 ~dst_host:h2 ~cells:4 with
    | Error _ -> Alcotest.fail "admit"
    | Ok vc ->
      Alcotest.(check (list int)) "path" [ 0; 1; 3 ] vc.switches;
      let t_fail = Netsim.Time.ms 4 in
      let events =
        if failover then
          [ (t_fail, An2.Netrun.Fail_link l13);
            (t_fail + Netsim.Time.us 100, An2.Netrun.Reroute_guaranteed bwc) ]
        else []
      in
      let r =
        An2.Netrun.run net An2.Netrun.default_params ~sources:[ An2.Netrun.Cbr vc ]
          ~events ~duration:(Netsim.Time.ms 6) ()
      in
      if failover then begin
        Alcotest.(check (list int)) "rerouted" [ 0; 2; 3 ] vc.switches;
        let s = List.assoc vc.An2.Network.vc_id r.per_vc in
        Alcotest.(check bool) "cells flushed" true (s.dropped > 0)
      end;
      r.max_guaranteed_backlog
  in
  Alcotest.(check int) "failover backlog = no-failure backlog"
    (run ~failover:false) (run ~failover:true)

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

let test_e2e_rejects_shared_vc () =
  (* Two sources on one circuit would share its buffers. *)
  let g = Topo.Build.linear 2 in
  let h1, h2 = Topo.Build.with_host_pair g in
  let net = An2.Network.create ~frame:16 g in
  match An2.Network.setup_best_effort net ~src_host:h1 ~dst_host:h2 with
  | Error e -> Alcotest.fail e
  | Ok vc ->
    Alcotest.(check bool) "raises" true
      (raises_invalid (fun () ->
           An2.Netrun.run net An2.Netrun.default_params
             ~sources:[ An2.Netrun.Saturated_be vc; An2.Netrun.Paced_be (vc, 0.5) ]
             ~duration:(Netsim.Time.ms 1) ()))

let test_e2e_rejects_looping_path () =
  (* A path through switches 0, 1, 0, 1: the per-position buffers need
     every switch at most once. *)
  let g = Topo.Build.linear 2 in
  let h1, h2 = Topo.Build.with_host_pair g in
  let net = An2.Network.create ~frame:16 g in
  let switches = [ 0; 1; 0; 1 ] in
  match An2.Network.links_of_switch_path net ~src_host:h1 ~dst_host:h2 switches with
  | Error e -> Alcotest.fail e
  | Ok links ->
    let vc = An2.Network.register_best_effort net ~src_host:h1 ~dst_host:h2 in
    An2.Network.assign_route net vc ~switches ~links;
    Alcotest.(check bool) "raises" true
      (raises_invalid (fun () ->
           An2.Netrun.run net An2.Netrun.default_params
             ~sources:[ An2.Netrun.Saturated_be vc ]
             ~duration:(Netsim.Time.ms 1) ()))

let test_e2e_slot_loop_allocation () =
  (* One guaranteed circuit across a fat-tree:8 leaves nearly every
     switch slot idle. Running 1 ms longer may allocate for the cells
     carried, but at most one minor word per extra switch slot. *)
  let g, _ = Topo.Build.fat_tree ~k:8 in
  let net = An2.Network.create ~frame:128 g in
  let bwc = An2.Bandwidth_central.create net in
  let vc =
    match
      An2.Bandwidth_central.request bwc ~src_host:0
        ~dst_host:(Topo.Graph.host_count g - 1) ~cells:8
    with
    | Ok vc -> vc
    | Error _ -> Alcotest.fail "admit"
  in
  let p = An2.Netrun.default_params in
  let words ms =
    let before = Gc.minor_words () in
    ignore
      (An2.Netrun.run net p ~sources:[ An2.Netrun.Cbr vc ]
         ~duration:(Netsim.Time.ms ms) ());
    Gc.minor_words () -. before
  in
  ignore (words 1);
  let extra = words 2 -. words 1 in
  let slots =
    float_of_int (Topo.Graph.switch_count g * (Netsim.Time.ms 1 / p.cell_time))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per switch slot <= 1" (extra /. slots))
    true
    (extra <= slots)

(* ------------------------------------------------------------------ *)
(* Parallel links: the links reserved and installed are the links the
   route search crossed *)

(* Switches 0 and 1 joined by two parallel links, [l0] the lower id,
   and [pairs] host pairs: host 2i on switch 0, host 2i + 1 on switch
   1. *)
let twin_links ~pairs =
  let g = Topo.Graph.create () in
  Topo.Graph.add_switches g 2;
  let l0 = Topo.Graph.connect g (Switch 0) (Switch 1) in
  let l1 = Topo.Graph.connect g (Switch 0) (Switch 1) in
  for _ = 1 to pairs do
    let a = Topo.Graph.add_host g and b = Topo.Graph.add_host g in
    ignore (Topo.Graph.connect g (Host a) (Switch 0));
    ignore (Topo.Graph.connect g (Host b) (Switch 1))
  done;
  (g, l0, l1)

let twin_frame = 16

(* Every link's reservation is within the frame, and every schedule a
   partial permutation per slot. *)
let check_within_frame g reserved net =
  for lid = 0 to Topo.Graph.link_count g - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "link %d reservation <= frame" lid)
      true
      (reserved lid <= twin_frame)
  done;
  for s = 0 to Topo.Graph.switch_count g - 1 do
    Alcotest.(check bool) "schedule valid" true
      (Frame.Schedule.valid (An2.Network.switch_schedule net s))
  done

let crosses (vc : An2.Network.vc) lid = List.mem lid vc.links

let test_twin_request () =
  let g, l0, l1 = twin_links ~pairs:2 in
  let net = An2.Network.create ~frame:twin_frame g in
  let bwc = An2.Bandwidth_central.create net in
  let admit src dst =
    match
      An2.Bandwidth_central.request bwc ~src_host:src ~dst_host:dst
        ~cells:twin_frame
    with
    | Ok vc -> vc
    | Error d -> Alcotest.failf "denied: %a" An2.Bandwidth_central.pp_denial d
  in
  let a = admit 0 1 in
  let b = admit 2 3 in
  Alcotest.(check bool) "first circuit on the first link" true (crosses a l0);
  Alcotest.(check bool) "second circuit on its twin" true (crosses b l1);
  Alcotest.(check int) "first link full" twin_frame
    (An2.Bandwidth_central.reserved bwc l0);
  Alcotest.(check int) "twin full" twin_frame (An2.Bandwidth_central.reserved bwc l1);
  check_within_frame g (An2.Bandwidth_central.reserved bwc) net

let test_twin_service_submit () =
  let g, l0, l1 = twin_links ~pairs:2 in
  let net = An2.Network.create ~frame:twin_frame g in
  let engine = Netsim.Engine.create () in
  let module S = An2.Bandwidth_central.Service in
  let svc = S.create ~engine net S.default_params in
  (* One admission at a time, each run to completion. *)
  let admit src dst =
    let result = ref None in
    S.submit svc ~src_host:src ~dst_host:dst ~cells:twin_frame
      ~on_done:(fun r -> result := Some r);
    Netsim.Engine.run engine;
    match !result with
    | Some (Ok vc) -> vc
    | Some (Error d) -> Alcotest.failf "denied: %a" An2.Bandwidth_central.pp_denial d
    | None -> Alcotest.fail "admission never finished"
  in
  let a = admit 0 1 in
  let b = admit 2 3 in
  Alcotest.(check bool) "first circuit on the first link" true (crosses a l0);
  Alcotest.(check bool) "second circuit on its twin" true (crosses b l1);
  Alcotest.(check int) "no escrow conflict" 0 (S.stats svc).escrow_conflicts;
  check_within_frame g (S.reserved svc) net

(* Host 0 reaches switch 0 over two host links. With the first twin
   down, its circuit lands on the second; once the first is back and
   full, losing host 0's first attachment must re-admit the circuit
   over the twin that has headroom, not the first link between the two
   switches. *)
let test_twin_reroute_after_failure () =
  let g, l0, l1 = twin_links ~pairs:2 in
  let spare = Topo.Graph.connect g (Host 0) (Switch 0) in
  let net = An2.Network.create ~frame:twin_frame g in
  let bwc = An2.Bandwidth_central.create net in
  let admit src dst =
    match
      An2.Bandwidth_central.request bwc ~src_host:src ~dst_host:dst
        ~cells:twin_frame
    with
    | Ok vc -> vc
    | Error d -> Alcotest.failf "denied: %a" An2.Bandwidth_central.pp_denial d
  in
  Topo.Graph.fail_link g l0;
  let a = admit 0 1 in
  Alcotest.(check bool) "admitted over the twin" true (crosses a l1);
  Topo.Graph.restore_link g l0;
  let b = admit 2 3 in
  Alcotest.(check bool) "second circuit on the restored link" true (crosses b l0);
  Topo.Graph.fail_link g (List.hd a.links);
  (match An2.Bandwidth_central.reroute_after_failure bwc a with
   | Ok () -> ()
   | Error d -> Alcotest.failf "reroute denied: %a" An2.Bandwidth_central.pp_denial d);
  Alcotest.(check bool) "re-admitted over the spare attachment" true
    (List.hd a.links = spare);
  Alcotest.(check bool) "and over the twin" true (crosses a l1);
  Alcotest.(check int) "first link still full" twin_frame
    (An2.Bandwidth_central.reserved bwc l0);
  Alcotest.(check int) "twin full" twin_frame (An2.Bandwidth_central.reserved bwc l1);
  check_within_frame g (An2.Bandwidth_central.reserved bwc) net

let test_twin_rebalance () =
  let g, l0, l1 = twin_links ~pairs:1 in
  let net = An2.Network.create g in
  for _ = 1 to 4 do
    match An2.Network.setup_best_effort net ~src_host:0 ~dst_host:1 with
    | Ok vc -> Alcotest.(check bool) "piled on the first link" true (crosses vc l0)
    | Error e -> Alcotest.fail e
  done;
  let load lid = List.assoc lid (An2.Rebalance.link_loads net) in
  Alcotest.(check bool) "moved some" true (An2.Rebalance.rebalance net > 0);
  Alcotest.(check int) "first link" 2 (load l0);
  Alcotest.(check int) "twin" 2 (load l1);
  An2.Network.iter_vcs net (fun vc ->
      Alcotest.(check bool) "table entries consistent" true
        (path_is_connected net vc))

let () =
  Alcotest.run "an2"
    [
      ( "host",
        [
          Alcotest.test_case "cells_needed" `Quick test_cells_needed;
          Alcotest.test_case "segment shape" `Quick test_segment_shape;
          test_roundtrip;
          Alcotest.test_case "interleaved vcs" `Quick test_reassembly_interleaved_vcs;
          Alcotest.test_case "detects gap" `Quick test_reassembly_detects_gap;
          Alcotest.test_case "mid-packet start" `Quick test_reassembly_mid_packet_start;
        ] );
      ( "network",
        [
          Alcotest.test_case "setup best effort" `Quick test_setup_best_effort;
          Alcotest.test_case "shortest path" `Quick test_setup_uses_shortest_path;
          Alcotest.test_case "teardown" `Quick test_teardown;
          Alcotest.test_case "vc ids are never reused" `Quick test_vc_ids_fresh;
          Alcotest.test_case "reroute avoids failure" `Quick test_reroute_avoids_failure;
          Alcotest.test_case "guaranteed reroute rejected" `Quick
            test_reroute_guaranteed_rejected;
          Alcotest.test_case "page out/in" `Quick test_page_out_in;
          Alcotest.test_case "partitioned" `Quick test_no_route_when_partitioned;
          test_hop_walker_tables;
          test_hop_walker_schedules;
          Alcotest.test_case "install allocation pinned" `Quick
            test_install_allocation_pinned;
        ] );
      ( "bandwidth-central",
        [
          Alcotest.test_case "accounting" `Quick test_admission_accounting;
          Alcotest.test_case "denies over capacity" `Quick
            test_admission_denies_over_capacity;
          Alcotest.test_case "denies no route" `Quick test_admission_denies_no_route;
          Alcotest.test_case "routes around saturation" `Quick
            test_admission_routes_around_saturation;
          test_schedules_valid_after_traffic;
          Alcotest.test_case "guaranteed reroute" `Quick
            test_guaranteed_reroute_after_failure;
          Alcotest.test_case "reroute dissolves on denial" `Quick
            test_guaranteed_reroute_dissolves_on_denial;
          Alcotest.test_case "dissolving reroute spares neighbors' cells" `Quick
            test_reroute_dissolve_spares_neighbors;
          Alcotest.test_case "double cell release raises" `Quick
            test_double_cell_release_raises;
        ] );
      ( "pager",
        [
          Alcotest.test_case "sweeps idle" `Quick test_pager_sweeps_idle;
          Alcotest.test_case "sweep idempotent" `Quick test_pager_sweep_idempotent;
          Alcotest.test_case "activity protects" `Quick test_pager_activity_protects;
          Alcotest.test_case "touch pages in" `Quick test_pager_touch_pages_in;
          Alcotest.test_case "touch unknown" `Quick test_pager_touch_unknown;
        ] );
      ( "packets",
        [
          Alcotest.test_case "end to end" `Quick test_packets_end_to_end;
          Alcotest.test_case "share with cbr" `Quick test_packets_share_with_cbr;
        ] );
      ( "signaling",
        [
          Alcotest.test_case "delivered in order" `Quick
            test_signaling_all_delivered_in_order;
          Alcotest.test_case "setup scales with hops" `Quick
            test_signaling_setup_scales_with_hops;
          Alcotest.test_case "backlog = software delay" `Quick
            test_signaling_backlog_matches_software_delay;
          Alcotest.test_case "slow source never queues" `Quick
            test_signaling_slow_source_never_queues;
          Alcotest.test_case "partitioned" `Quick test_signaling_partitioned;
          Alcotest.test_case "link dies mid-crawl" `Quick
            test_signaling_link_dies_mid_crawl;
          Alcotest.test_case "late failure after setup" `Quick
            test_signaling_late_failure_after_setup;
        ] );
      ( "rebalance",
        [
          Alcotest.test_case "load accounting" `Quick
            test_rebalance_loads_accounting;
          Alcotest.test_case "spreads a pile-up" `Quick test_rebalance_spreads;
          Alcotest.test_case "idempotent" `Quick test_rebalance_idempotent;
          Alcotest.test_case "respects stretch bound" `Quick
            test_rebalance_respects_stretch;
          Alcotest.test_case "routes stay valid" `Quick
            test_rebalance_keeps_routes_valid;
        ] );
      ( "parallel-links",
        [
          Alcotest.test_case "request takes the idle twin" `Quick test_twin_request;
          Alcotest.test_case "service submit takes the idle twin" `Quick
            test_twin_service_submit;
          Alcotest.test_case "reroute after failure takes the twin" `Quick
            test_twin_reroute_after_failure;
          Alcotest.test_case "rebalance moves onto the twin" `Quick
            test_twin_rebalance;
        ] );
      ( "multicast",
        [
          Alcotest.test_case "tree shape" `Quick test_multicast_tree_shape;
          test_multicast_beats_unicast;
          Alcotest.test_case "shared-path economy" `Quick
            test_multicast_shared_path_economy;
          Alcotest.test_case "delivery" `Quick test_multicast_delivery;
          Alcotest.test_case "rebuild after failure" `Quick
            test_multicast_rebuild_after_failure;
          Alcotest.test_case "validation" `Quick test_multicast_validation;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "cbr latency bound (paper)" `Slow
            test_e2e_cbr_latency_bound;
          Alcotest.test_case "guaranteed backlog bounded (paper)" `Slow
            test_e2e_guaranteed_backlog_bounded;
          Alcotest.test_case "best effort saturated" `Slow
            test_e2e_best_effort_saturated;
          Alcotest.test_case "be + cbr share (paper)" `Slow test_e2e_be_and_cbr_share;
          Alcotest.test_case "failover" `Slow test_e2e_failover;
          Alcotest.test_case "rejects shared vc" `Quick test_e2e_rejects_shared_vc;
          Alcotest.test_case "rejects looping path" `Quick
            test_e2e_rejects_looping_path;
          Alcotest.test_case "slot loop allocation-free" `Slow
            test_e2e_slot_loop_allocation;
          test_e2e_conservation;
          Alcotest.test_case "reroute clears guaranteed backlog" `Slow
            test_e2e_reroute_clears_guaranteed_backlog;
        ] );
    ]
