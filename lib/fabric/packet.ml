type t = {
  input : int;
  output : int;
  len : int;
  arrival : int;
}

let make ~input ~output ~len ~arrival =
  if len < 1 then invalid_arg "Packet.make: empty packet";
  { input; output; len; arrival }

module Source = struct
  type packet_gen = {
    n : int;
    rng : Netsim.Rng.t;
    load : float;
    draw_len : unit -> int;
    mean_len : float;
    (* The input link is busy receiving until this slot. *)
    busy_until : int array;
  }

  let generic ~rng ~n ~load ~draw_len ~mean_len =
    if load < 0.0 || load > 1.0 then invalid_arg "Packet.Source: bad load";
    { n; rng; load; draw_len; mean_len; busy_until = Array.make n 0 }

  let bimodal ~rng ~n ~load ~short ~long ~long_fraction =
    if short < 1 || long < short then invalid_arg "Packet.Source.bimodal";
    let mean_len =
      ((1.0 -. long_fraction) *. float_of_int short)
      +. (long_fraction *. float_of_int long)
    in
    let draw_len () =
      if Netsim.Rng.bernoulli rng long_fraction then long else short
    in
    generic ~rng ~n ~load ~draw_len ~mean_len

  let fixed_length ~rng ~n ~load ~len =
    if len < 1 then invalid_arg "Packet.Source.fixed_length";
    generic ~rng ~n ~load ~draw_len:(fun () -> len) ~mean_len:(float_of_int len)

  let arrivals g ~slot ~input =
    if input < 0 || input >= g.n then invalid_arg "Packet.Source.arrivals";
    if slot < g.busy_until.(input) then []
    else begin
      (* Start probability per free slot such that the long-run cell
         rate is [load]: p * mean_len / (p * mean_len + idle_run) ...
         the standard on/off identity reduces to p = load / (mean_len
         * (1 - load) + load) per idle slot; at load 1 the link is
         always receiving. *)
      let p =
        if g.load >= 1.0 then 1.0
        else g.load /. ((g.mean_len *. (1.0 -. g.load)) +. g.load)
      in
      if Netsim.Rng.bernoulli g.rng p then begin
        let len = g.draw_len () in
        g.busy_until.(input) <- slot + len;
        [
          make ~input
            ~output:(Netsim.Rng.int g.rng g.n)
            ~len ~arrival:slot;
        ]
      end
      else []
    end
end
