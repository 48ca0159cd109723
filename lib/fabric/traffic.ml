type gen = Single of (slot:int -> input:int -> int) | Fixed of int list array
type t = { n : int; gen : gen }

let arrivals t ~slot ~input =
  if input < 0 || input >= t.n then invalid_arg "Traffic.arrivals: bad input";
  match t.gen with
  | Single dest ->
    let o = dest ~slot ~input in
    if o < 0 then [] else [ o ]
  | Fixed per_input -> per_input.(input)

let single n dest = { n; gen = Single dest }

let uniform ~rng ~n ~load =
  single n (fun ~slot:_ ~input:_ ->
      if Netsim.Rng.bernoulli rng load then Netsim.Rng.int rng n else -1)

let bursty ~rng ~n ~load ~mean_burst =
  if mean_burst < 1.0 then invalid_arg "Traffic.bursty: mean_burst >= 1 required";
  (* Per-input state: remaining cells of the current burst and its
     destination, plus a geometric idle gap sized so the long-run duty
     cycle equals [load]. *)
  let remaining = Array.make n 0 in
  let dest = Array.make n 0 in
  let idle = Array.make n 0 in
  let mean_gap = if load >= 1.0 then 0.0 else mean_burst *. ((1.0 -. load) /. load) in
  single n (fun ~slot:_ ~input ->
      if idle.(input) > 0 then begin
        idle.(input) <- idle.(input) - 1;
        -1
      end
      else begin
        if remaining.(input) = 0 then begin
          remaining.(input) <- 1 + Netsim.Rng.geometric rng ~p:(1.0 /. mean_burst);
          dest.(input) <- Netsim.Rng.int rng n
        end;
        remaining.(input) <- remaining.(input) - 1;
        if remaining.(input) = 0 && mean_gap > 0.0 then
          idle.(input) <- Netsim.Rng.geometric rng ~p:(1.0 /. (mean_gap +. 1.0));
        dest.(input)
      end)

let hotspot ~rng ~n ~load ~hot_fraction =
  single n (fun ~slot:_ ~input:_ ->
      if Netsim.Rng.bernoulli rng load then
        if Netsim.Rng.bernoulli rng hot_fraction then 0 else Netsim.Rng.int rng n
      else -1)

let permutation ~rng ~n ~load =
  single n (fun ~slot:_ ~input ->
      if Netsim.Rng.bernoulli rng load then (input + 1) mod n else -1)

let fixed pairs ~n =
  let per_input = Array.make n [] in
  List.iter
    (fun (i, o) ->
      if i < 0 || i >= n || o < 0 || o >= n then invalid_arg "Traffic.fixed";
      per_input.(i) <- per_input.(i) @ [ o ])
    pairs;
  { n; gen = Fixed per_input }
