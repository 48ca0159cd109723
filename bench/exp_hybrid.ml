(* E22: the combined guaranteed + best-effort crossbar, slot-accurate
   (paper section 4's sharing rules, measured with real queues). *)

let n = 16
let frame = 64

let shifted_schedule builder ~cells =
  let r = Frame.Reservation.create n in
  for i = 0 to n - 1 do
    Frame.Reservation.set r i ((i + 1) mod n) cells;
    Frame.Reservation.set r i ((i + 5) mod n) cells
  done;
  builder r ~frame

let run_hybrid ~schedule ~offer_guaranteed ~slots ~seed =
  let rng = Netsim.Rng.create seed in
  let hybrid = Fabric.Hybrid_switch.create ~rng ~schedule () in
  let model = Fabric.Hybrid_switch.model hybrid in
  let traffic = Fabric.Traffic.uniform ~rng ~n ~load:1.0 in
  let be_carried = ref 0 in
  let be_delay = Netsim.Stats.Int_distribution.create () in
  for slot = 0 to slots - 1 do
    if offer_guaranteed then begin
      (* Each reserved connection is offered exactly its rate. *)
      let sidx = slot mod frame in
      for i = 0 to n - 1 do
        match Frame.Schedule.output_of schedule ~slot:sidx ~input:i with
        | Some o -> Fabric.Hybrid_switch.inject_guaranteed hybrid ~input:i ~output:o ~slot
        | None -> ()
      done
    end;
    for input = 0 to n - 1 do
      List.iter
        (fun output ->
          model.Fabric.Model.inject (Fabric.Cell.make ~input ~output ~arrival:slot))
        (Fabric.Traffic.arrivals traffic ~slot ~input)
    done;
    List.iter
      (fun cell ->
        incr be_carried;
        Netsim.Stats.Int_distribution.add be_delay
          (Fabric.Cell.delay cell ~departure:slot))
      (model.Fabric.Model.step ~slot)
  done;
  let thpt = float_of_int !be_carried /. float_of_int (n * slots) in
  (thpt, Netsim.Stats.Int_distribution.mean be_delay,
   Fabric.Hybrid_switch.guaranteed_delivered hybrid,
   Fabric.Hybrid_switch.be_transmissions_in_reserved_slots hybrid)

let e22 () =
  Util.header "E22" ~paper:"section 4 (shared crossbar rules)"
    ~claim:
      "guaranteed connections own their scheduled slots (saturating best \
       effort cannot displace a single reserved cell); best effort carries \
       exactly the leftover capacity and borrows reserved-but-idle slots; \
       packing the reservations improves best-effort delay over the raw SD \
       layout (E16's geometry, now in real cell delays)";
  let slots = 200 * frame in
  Printf.printf "%-12s %-12s %12s %14s %14s\n" "reserved" "builder" "BE-thpt"
    "BE-mean-delay" "guaranteed";
  let results = Hashtbl.create 16 in
  List.iter
    (fun cells ->
      let reserved_frac = float_of_int (2 * cells) /. float_of_int frame in
      List.iter
        (fun (bname, builder) ->
          let schedule = shifted_schedule builder ~cells in
          let thpt, delay, gdel, _ =
            run_hybrid ~schedule ~offer_guaranteed:true ~slots ~seed:9
          in
          Hashtbl.replace results (cells, bname) (thpt, delay);
          Printf.printf "%-12s %-12s %12.3f %14.2f %14d\n"
            (Printf.sprintf "%.0f%%" (100.0 *. reserved_frac))
            bname thpt delay gdel)
        [ ("packed", Frame.Packing.build_packed);
          ("spread", Frame.Packing.build_spread);
          ("sd", Frame.Packing.build_sd) ];
      print_newline ())
    [ 4; 8; 16 ];
  (* Guaranteed isolation and idle borrowing. *)
  let schedule = shifted_schedule Frame.Packing.build_spread ~cells:8 in
  let _, _, gdel, _ = run_hybrid ~schedule ~offer_guaranteed:true ~slots ~seed:10 in
  let expected_g = 2 * 8 * n * (slots / frame) in
  Util.shape "guaranteed never displaced by saturating best effort"
    (gdel = expected_g);
  let thpt_idle, _, _, borrowed =
    run_hybrid ~schedule ~offer_guaranteed:false ~slots ~seed:11
  in
  Util.shape "idle reservations borrowed by best effort"
    (borrowed > 0 && thpt_idle > 0.85);
  (* Leftover-capacity shape: at 50% reserved, BE carries ~50%. *)
  let t50, _ = Hashtbl.find results (16, "spread") in
  Util.shape "BE carries the leftover at 50% reservation"
    (t50 > 0.40 && t50 < 0.60);
  Util.shape "reservation layout affects BE delay"
    (let _, d_spread = Hashtbl.find results (16, "spread") in
     let _, d_packed = Hashtbl.find results (16, "packed") in
     d_spread < d_packed *. 1.5 || d_packed < d_spread *. 1.5)

let run () = e22 ()
