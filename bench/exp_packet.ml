(* E24: AN1's packet switching vs AN2's cells, on identical offered
   traffic (paper section 1's motivation for fixed-length cells). *)

let n = 16
let short = 2  (* ~100-byte packet in cell times *)
let long = 32  (* ~1500-byte packet *)
let long_fraction = 0.2

(* Run the AN1-style packet switch; returns (carried fraction,
   mean short-packet latency, mean long-packet latency). *)
let run_an1 ~load ~slots ~seed =
  let rng = Netsim.Rng.create seed in
  let sw = Fabric.Packet_switch.create ~rng ~n in
  let g = Fabric.Packet.Source.bimodal ~rng ~n ~load ~short ~long ~long_fraction in
  let lat_short = Netsim.Stats.Summary.create () in
  let lat_long = Netsim.Stats.Summary.create () in
  for slot = 0 to slots - 1 do
    for input = 0 to n - 1 do
      List.iter (Fabric.Packet_switch.inject sw)
        (Fabric.Packet.Source.arrivals g ~slot ~input)
    done;
    List.iter
      (fun (p : Fabric.Packet.t) ->
        let l = float_of_int (slot - p.arrival + 1) in
        if p.len = short then Netsim.Stats.Summary.add lat_short l
        else Netsim.Stats.Summary.add lat_long l)
      (Fabric.Packet_switch.step sw ~slot)
  done;
  ( float_of_int (Fabric.Packet_switch.carried_cells sw) /. float_of_int (n * slots),
    Netsim.Stats.Summary.mean lat_short,
    Netsim.Stats.Summary.mean lat_long )

(* The AN2 way: the same packets are segmented into cells as they
   stream in, switched by VOQ+PIM, and a packet completes when its
   last cell departs (cells of one (input,output) pair stay in
   order). *)
let run_an2 ~load ~slots ~seed =
  let rng = Netsim.Rng.create seed in
  let g = Fabric.Packet.Source.bimodal ~rng ~n ~load ~short ~long ~long_fraction in
  (* Per (input, output): FIFO of packets awaiting their remaining
     cells' transfer. *)
  let pending :
      (int * int, (Fabric.Packet.t * int ref) Queue.t) Hashtbl.t =
    Hashtbl.create 64
  in
  let pending_q key =
    match Hashtbl.find_opt pending key with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.add pending key q;
      q
  in
  let lat_short = Netsim.Stats.Summary.create () in
  let lat_long = Netsim.Stats.Summary.create () in
  let carried = ref 0 in
  let on_transfer (c : Fabric.Cell.t) ~slot =
    incr carried;
    let q = pending_q (c.input, c.output) in
    match Queue.peek_opt q with
    | None -> ()
    | Some ((p : Fabric.Packet.t), remaining) ->
      decr remaining;
      if !remaining = 0 then begin
        ignore (Queue.pop q);
        let l = float_of_int (slot - p.arrival + 1) in
        if p.len = short then Netsim.Stats.Summary.add lat_short l
        else Netsim.Stats.Summary.add lat_long l
      end
  in
  let model =
    Fabric.Voq_switch.create_observed ~obs:Obs.Sink.null ~rng ~n ~scheduler:(Pim 3)
      ~on_transfer
  in
  (* Cells of an arriving packet enter the VOQ one per slot as the
     packet streams in from the link. *)
  let streaming : (int * Fabric.Packet.t * int ref) list ref = ref [] in
  for slot = 0 to slots - 1 do
    for input = 0 to n - 1 do
      List.iter
        (fun (p : Fabric.Packet.t) ->
          Queue.add (p, ref p.len) (pending_q (p.input, p.output));
          streaming := (input, p, ref p.len) :: !streaming)
        (Fabric.Packet.Source.arrivals g ~slot ~input)
    done;
    streaming :=
      List.filter
        (fun (input, (p : Fabric.Packet.t), left) ->
          model.Fabric.Model.inject
            (Fabric.Cell.make ~input ~output:p.output ~arrival:slot);
          decr left;
          !left > 0)
        !streaming;
    ignore (model.Fabric.Model.step ~slot)
  done;
  ( float_of_int !carried /. float_of_int (n * slots),
    Netsim.Stats.Summary.mean lat_short,
    Netsim.Stats.Summary.mean lat_long )

let e24 () =
  Util.header "E24" ~paper:"section 1 (AN1 packets vs AN2 cells)"
    ~claim:
      "fixed-length cells make high-speed switching easier: with \
       ethernet-like packet mixes, AN1-style FIFO packet switching loses \
       throughput to length-amplified head-of-line blocking, and short \
       packets queue behind 1500-byte ones; AN2's cell interleaving keeps \
       short-transfer latency low and throughput near the VOQ limit";
  Printf.printf
    "16 ports, packets %d or %d cells (%.0f%%/%.0f%%), latencies in cell times\n"
    short long
    (100.0 *. (1.0 -. long_fraction))
    (100.0 *. long_fraction);
  Printf.printf "%-8s %16s %16s %18s %18s\n" "load" "AN1-thpt" "AN2-thpt"
    "AN1-short-lat" "AN2-short-lat";
  let results = Hashtbl.create 8 in
  List.iter
    (fun load ->
      let slots = 30_000 in
      let t1, s1, _ = run_an1 ~load ~slots ~seed:7 in
      let t2, s2, _ = run_an2 ~load ~slots ~seed:7 in
      Hashtbl.replace results load ((t1, s1), (t2, s2));
      Printf.printf "%-8.2f %16.3f %16.3f %18.1f %18.1f\n" load t1 t2 s1 s2)
    [ 0.3; 0.5; 0.6; 0.7; 0.8; 0.95 ];
  let (an1_t, an1_s), (an2_t, an2_s) = Hashtbl.find results 0.95 in
  Util.shape "AN2 sustains more load at saturation" (an2_t > an1_t +. 0.05);
  Util.shape "short packets much slower behind long ones on AN1"
    (an1_s > 2.0 *. an2_s);
  let (_, an1_s5), (_, an2_s5) = Hashtbl.find results 0.3 in
  (* Even at light load an AN1 short packet occasionally parks behind a
     full 32-cell transfer, so its mean sits near a fraction of a long
     packet; AN2 cells interleave and stay in single digits. *)
  Util.shape "light-load short-packet latency bounded by one long packet (AN1)"
    (an1_s5 < float_of_int (long + short));
  Util.shape "light-load cells interleave (AN2 single-digit latency)"
    (an2_s5 < 10.0)

let run () = e24 ()
