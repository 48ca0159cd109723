type t = {
  size : int;
  slots : int;
  (* out_of.(s).(i) = output fed by input i in slot s, or -1. *)
  out_of : int array array;
  (* in_of.(s).(o) = input feeding output o in slot s, or -1. *)
  in_of : int array array;
}

let create ~n ~frame =
  if n < 1 || frame < 1 then invalid_arg "Schedule.create";
  {
    size = n;
    slots = frame;
    out_of = Array.make_matrix frame n (-1);
    in_of = Array.make_matrix frame n (-1);
  }

let n t = t.size
let frame t = t.slots

let output_at t ~slot ~input = t.out_of.(slot).(input)

let output_of t ~slot ~input =
  let o = output_at t ~slot ~input in
  if o < 0 then None else Some o

let input_of t ~slot ~output =
  let i = t.in_of.(slot).(output) in
  if i < 0 then None else Some i

let input_free t ~slot ~input = t.out_of.(slot).(input) < 0
let output_free t ~slot ~output = t.in_of.(slot).(output) < 0

let place t ~slot ~input ~output =
  if not (input_free t ~slot ~input) then
    invalid_arg (Printf.sprintf "Schedule.place: input %d busy in slot %d" input slot);
  if not (output_free t ~slot ~output) then
    invalid_arg (Printf.sprintf "Schedule.place: output %d busy in slot %d" output slot);
  t.out_of.(slot).(input) <- output;
  t.in_of.(slot).(output) <- input

let unplace t ~slot ~input ~output =
  assert (t.out_of.(slot).(input) = output);
  t.out_of.(slot).(input) <- -1;
  t.in_of.(slot).(output) <- -1

let reserved_count t ~input ~output =
  let count = ref 0 in
  for s = 0 to t.slots - 1 do
    if t.out_of.(s).(input) = output then incr count
  done;
  !count

let to_reservation t =
  let r = Frame.Reservation.create t.size in
  for s = 0 to t.slots - 1 do
    for i = 0 to t.size - 1 do
      let o = t.out_of.(s).(i) in
      if o >= 0 then Frame.Reservation.add r i o 1
    done
  done;
  r

type add_outcome = {
  steps : int;
  moves : (int * int * int * int) list;
}

let find_slot t pred =
  let rec scan s = if s = t.slots then None else if pred s then Some s else scan (s + 1) in
  scan 0

(* The Slepian-Duguid swap chain between slots [p] and [q] (paper
   Figure 3). Inserting a connection into a slot may displace at most
   one existing connection (on the input or the output side, never
   both, given how p and q are chosen); the displaced connection is
   re-inserted into the other slot. Terminates within [n] moves. *)
let add_cell t ~input ~output =
  match
    find_slot t (fun s -> input_free t ~slot:s ~input && output_free t ~slot:s ~output)
  with
  | Some s ->
    place t ~slot:s ~input ~output;
    Ok { steps = 1; moves = [] }
  | None ->
    let p = find_slot t (fun s -> input_free t ~slot:s ~input) in
    let q = find_slot t (fun s -> output_free t ~slot:s ~output) in
    (match (p, q) with
     | None, _ ->
       Error (Printf.sprintf "input %d fully committed (inadmissible)" input)
     | _, None ->
       Error (Printf.sprintf "output %d fully committed (inadmissible)" output)
     | Some p, Some q ->
       let moves = ref [] in
       let steps = ref 0 in
       let limit = (4 * t.size) + 4 in
       (* Insert (i -> o) into [slot]; displace any conflicting
          connection into [other]. *)
       let rec insert ~slot ~other i o =
         if !steps > limit then
           failwith "Schedule.add_cell: swap chain exceeded bound (bug)";
         incr steps;
         let in_conflict =
           let o' = t.out_of.(slot).(i) in
           if o' >= 0 then Some (i, o') else None
         in
         let out_conflict =
           let i' = t.in_of.(slot).(o) in
           if i' >= 0 then Some (i', o) else None
         in
         (match (in_conflict, out_conflict) with
          | Some _, Some _ ->
            (* Cannot happen: each insertion slot has the relevant side
               free by construction. *)
            assert false
          | Some (ci, co), None | None, Some (ci, co) ->
            unplace t ~slot ~input:ci ~output:co;
            place t ~slot ~input:i ~output:o;
            moves := (slot, other, ci, co) :: !moves;
            insert ~slot:other ~other:slot ci co
          | None, None -> place t ~slot ~input:i ~output:o)
       in
       insert ~slot:p ~other:q input output;
       Ok { steps = !steps; moves = List.rev !moves })

let add_reservation t ~input ~output ~cells =
  let rec go k total =
    if k = 0 then Ok total
    else
      match add_cell t ~input ~output with
      | Ok { steps; _ } -> go (k - 1) (total + steps)
      | Error e -> Error e
  in
  if cells < 0 then invalid_arg "Schedule.add_reservation";
  go cells 0

let remove_cell t ~input ~output =
  let found = ref None in
  for s = 0 to t.slots - 1 do
    if t.out_of.(s).(input) = output then found := Some s
  done;
  match !found with
  | Some s ->
    unplace t ~slot:s ~input ~output;
    true
  | None -> false

let valid t =
  let ok = ref true in
  for s = 0 to t.slots - 1 do
    for i = 0 to t.size - 1 do
      let o = t.out_of.(s).(i) in
      if o >= 0 && t.in_of.(s).(o) <> i then ok := false
    done;
    for o = 0 to t.size - 1 do
      let i = t.in_of.(s).(o) in
      if i >= 0 && t.out_of.(s).(i) <> o then ok := false
    done
  done;
  !ok

let copy t =
  {
    size = t.size;
    slots = t.slots;
    out_of = Array.map Array.copy t.out_of;
    in_of = Array.map Array.copy t.in_of;
  }

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  for s = 0 to t.slots - 1 do
    Format.fprintf fmt "  slot %d |" (s + 1);
    for i = 0 to t.size - 1 do
      let o = t.out_of.(s).(i) in
      if o >= 0 then Format.fprintf fmt " %d->%d" (i + 1) (o + 1)
      else Format.fprintf fmt "     "
    done;
    Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"
