type smoothness = {
  max_gap : int;
  mean_gap : float;
  worst_subframe_imbalance : int;
}

(* Split a reservation matrix into two halves such that every pair's
   multiplicity and every line's sum divide within +-1. Even parts of
   each multiplicity split exactly; the leftover odd edges form a
   simple bipartite graph whose Euler trails we 2-color alternately,
   which splits every node's leftover degree within +-1 (the classical
   Euler-partition argument behind TDM frame splitting). *)
let halve r =
  let n = r.Reservation.n in
  let a = Reservation.create n and b = Reservation.create n in
  let leftover = ref [] in
  for i = 0 to n - 1 do
    for o = 0 to n - 1 do
      let k = Reservation.get r i o in
      Reservation.set a i o (k / 2);
      Reservation.set b i o (k / 2);
      if k land 1 = 1 then leftover := (i, o) :: !leftover
    done
  done;
  (* Euler split of the leftover graph. Vertices: inputs 0..n-1,
     outputs n..2n-1. *)
  let edges = Array.of_list !leftover in
  let ne = Array.length edges in
  let adj = Array.make (2 * n) [] in
  Array.iteri
    (fun e (i, o) ->
      adj.(i) <- e :: adj.(i);
      adj.(n + o) <- e :: adj.(n + o))
    edges;
  let used = Array.make ne false in
  let degree = Array.map List.length adj in
  let next_edge v =
    let rec scan = function
      | [] ->
        adj.(v) <- [];
        None
      | e :: rest ->
        if used.(e) then scan rest
        else begin
          adj.(v) <- rest;
          Some e
        end
    in
    scan adj.(v)
  in
  let assign e side =
    let i, o = edges.(e) in
    if side then Reservation.add a i o 1 else Reservation.add b i o 1
  in
  let walk_from v0 =
    (* Follow a maximal trail, alternating sides along it. *)
    let v = ref v0 and side = ref true in
    let continue = ref true in
    while !continue do
      match next_edge !v with
      | None -> continue := false
      | Some e ->
        used.(e) <- true;
        assign e !side;
        side := not !side;
        let i, o = edges.(e) in
        v := if !v = i then n + o else i
    done
  in
  (* Odd-degree vertices first (trail endpoints), then any remaining
     cycles. *)
  for v = 0 to (2 * n) - 1 do
    if degree.(v) land 1 = 1 then walk_from v
  done;
  for e = 0 to ne - 1 do
    if not used.(e) then begin
      let i, _ = edges.(e) in
      walk_from i
    end
  done;
  (a, b)

let rec decompose r m =
  if m = 1 then [ r ]
  else begin
    let a, b = halve r in
    decompose a (m / 2) @ decompose b (m / 2)
  end

let is_power_of_two m = m > 0 && m land (m - 1) = 0

let build r ~frame ~subframes =
  if subframes < 1 || frame mod subframes <> 0 then
    invalid_arg "Nested.build: subframes must divide frame";
  if not (is_power_of_two subframes) then
    invalid_arg "Nested.build: subframe count must be a power of two";
  let cap = frame / subframes in
  if not (Reservation.admissible r ~frame) then
    Error "reservation matrix inadmissible for this frame"
  else begin
    let parts = decompose r subframes in
    let n = r.Reservation.n in
    let schedule = Schedule.create ~n ~frame in
    let exception Failed of string in
    try
      List.iteri
        (fun s part ->
          (* Each part is admissible for [cap] slots because Euler
             splitting divides every line sum within +-1 at each of the
             log2 m levels. Schedule it independently, then copy into
             the global slot range. *)
          let sub = Schedule.create ~n ~frame:cap in
          for i = 0 to n - 1 do
            for o = 0 to n - 1 do
              match
                Schedule.add_reservation sub ~input:i ~output:o
                  ~cells:(Reservation.get part i o)
              with
              | Ok _ -> ()
              | Error e -> raise (Failed e)
            done
          done;
          for slot = 0 to cap - 1 do
            for i = 0 to n - 1 do
              match Schedule.output_of sub ~slot ~input:i with
              | Some o ->
                Schedule.place schedule ~slot:((s * cap) + slot) ~input:i ~output:o
              | None -> ()
            done
          done)
        parts;
      Ok schedule
    with Failed e -> Error e
  end

let measure schedule ~subframes =
  let n = Schedule.n schedule and frame = Schedule.frame schedule in
  if subframes < 1 || frame mod subframes <> 0 then
    invalid_arg "Nested.measure: subframes must divide frame";
  let cap = frame / subframes in
  let max_gap = ref 0 and gap_sum = ref 0.0 and pairs = ref 0 in
  let worst_imbalance = ref 0 in
  for i = 0 to n - 1 do
    for o = 0 to n - 1 do
      let slots = ref [] in
      for slot = frame - 1 downto 0 do
        if Schedule.output_of schedule ~slot ~input:i = Some o then
          slots := slot :: !slots
      done;
      match !slots with
      | [] -> ()
      | first :: _ as all ->
        incr pairs;
        (* Circular gaps between consecutive scheduled slots. *)
        let worst = ref 0 in
        let rec gaps = function
          | [ last ] -> worst := max !worst (frame - last + first)
          | a :: (b :: _ as rest) ->
            worst := max !worst (b - a);
            gaps rest
          | [] -> ()
        in
        gaps all;
        if !worst > !max_gap then max_gap := !worst;
        gap_sum := !gap_sum +. float_of_int !worst;
        (* Per-subframe balance of this pair. *)
        let per_sub = Array.make subframes 0 in
        List.iter (fun slot -> per_sub.(slot / cap) <- per_sub.(slot / cap) + 1) all;
        let lo = Array.fold_left min max_int per_sub in
        let hi = Array.fold_left max 0 per_sub in
        if hi - lo > !worst_imbalance then worst_imbalance := hi - lo
    done
  done;
  {
    max_gap = !max_gap;
    mean_gap = (if !pairs = 0 then 0.0 else !gap_sum /. float_of_int !pairs);
    worst_subframe_imbalance = !worst_imbalance;
  }
