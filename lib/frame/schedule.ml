(* Storage: two flat tables of 16-bit entries, row-major by slot. In
   [out_of], entry (s * size + i) is 1 + the output fed by input i in
   slot s, or 0 when the input is idle; [in_of] is the same index by
   output. Bytes are opaque to the GC, so a frame of any length costs
   no scanning.

   Beside them, one busy bit per (port, slot) in each direction:
   [in_busy] holds, for input i, [words] words from index [i * words],
   and bit (s mod 63) of word (s / 63) is set iff input i is busy in
   slot s; [out_busy] is the same by output. Bits past the frame stay
   clear. First fit reads a word of 63 slots at a time.

   [top.(i)] is the latest slot in which input i is busy (-1 if none),
   so [remove_cell] scans the table down from there, not across the
   frame. On the sparse ports of a large fabric that scan reads a few
   entries, fewer than a walk down the input's busy words would.

   Everything stays empty until the first [place]: a schedule that
   never holds a cell costs a few words. *)
type t = {
  size : int;
  slots : int;
  words : int;  (* busy words per port *)
  mutable out_of : Bytes.t;
  mutable in_of : Bytes.t;
  mutable in_busy : int array;
  mutable out_busy : int array;
  mutable top : int array;
  mutable cells : int;
}

(* Slots per busy word: every bit of an OCaml int, so a word with all
   its slots busy is -1. *)
let word = 63

let create ~n ~frame =
  if n < 1 || n > 0xffff || frame < 1 then invalid_arg "Schedule.create";
  { size = n; slots = frame; words = (frame + word - 1) / word; out_of = Bytes.empty;
    in_of = Bytes.empty; in_busy = [||]; out_busy = [||]; top = [||]; cells = 0 }

let n t = t.size
let frame t = t.slots
let cell_count t = t.cells

let allocate t =
  if Bytes.length t.out_of = 0 then begin
    t.out_of <- Bytes.make (2 * t.slots * t.size) '\000';
    t.in_of <- Bytes.make (2 * t.slots * t.size) '\000';
    t.in_busy <- Array.make (t.size * t.words) 0;
    t.out_busy <- Array.make (t.size * t.words) 0;
    t.top <- Array.make t.size (-1)
  end

(* Raised on a slot or port out of range: with flat rows such a port
   would alias a neighbouring slot. A constant exception keeps the
   reads below free of calls. *)
let out_of_range = Invalid_argument "Schedule: slot or port out of range"

(* The unchecked 16-bit read behind [Bytes.get_uint16_ne]. Every caller
   has checked the slot and port first; the safe read would also load
   the block's length from its last word. *)
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"

(* Entry (slot, port) of [table]. With no cell scheduled every entry is
   0, which also covers the tables before their allocation. *)
let[@inline] read t table ~slot ~port =
  (* Negative iff slot or port is out of range: one branch, not four. *)
  if port lor (t.size - 1 - port) lor slot lor (t.slots - 1 - slot) < 0 then
    raise out_of_range;
  if t.cells = 0 then 0 else get16u table (2 * ((slot * t.size) + port))

(* Reads for the internal loops, whose slots and ports are in range by
   construction: the tables must be allocated. *)
let[@inline] out_entry t s i = get16u t.out_of (2 * ((s * t.size) + i))
let[@inline] in_entry t s o = get16u t.in_of (2 * ((s * t.size) + o))

let output_at t ~slot ~input = read t t.out_of ~slot ~port:input - 1

let output_of t ~slot ~input =
  let o = output_at t ~slot ~input in
  if o < 0 then None else Some o

let input_of t ~slot ~output =
  let i = read t t.in_of ~slot ~port:output - 1 in
  if i < 0 then None else Some i

let input_free t ~slot ~input = read t t.out_of ~slot ~port:input = 0
let output_free t ~slot ~output = read t t.in_of ~slot ~port:output = 0

(* Flip slot [s]'s bit in port [p]'s row of [busy]. *)
let[@inline] flip t (busy : int array) p s =
  let k = (p * t.words) + (s / word) in
  busy.(k) <- busy.(k) lxor (1 lsl (s mod word))

(* [input_free] and [output_free] range-check both ports and the slot. *)
let place t ~slot ~input ~output =
  if not (input_free t ~slot ~input) then
    invalid_arg (Printf.sprintf "Schedule.place: input %d busy in slot %d" input slot);
  if not (output_free t ~slot ~output) then
    invalid_arg (Printf.sprintf "Schedule.place: output %d busy in slot %d" output slot);
  allocate t;
  Bytes.set_uint16_ne t.out_of (2 * ((slot * t.size) + input)) (output + 1);
  Bytes.set_uint16_ne t.in_of (2 * ((slot * t.size) + output)) (input + 1);
  flip t t.in_busy input slot;
  flip t t.out_busy output slot;
  if slot > t.top.(input) then t.top.(input) <- slot;
  t.cells <- t.cells + 1

(* The latest slot at or below [s] whose [input] entry is [want], or -1.
   Top-level rather than a local closure: teardown calls it per cell. *)
let rec latest t ~input ~want s =
  if s < 0 || out_entry t s input = want then s else latest t ~input ~want (s - 1)

(* The latest slot at or below [s] in which [input] is busy, or -1. *)
let rec busy_at_or_below t ~input s =
  if s < 0 || out_entry t s input <> 0 then s else busy_at_or_below t ~input (s - 1)

let unplace t ~slot ~input ~output =
  assert (out_entry t slot input = output + 1);
  Bytes.set_uint16_ne t.out_of (2 * ((slot * t.size) + input)) 0;
  Bytes.set_uint16_ne t.in_of (2 * ((slot * t.size) + output)) 0;
  flip t t.in_busy input slot;
  flip t t.out_busy output slot;
  if slot = t.top.(input) then t.top.(input) <- busy_at_or_below t ~input (slot - 1);
  t.cells <- t.cells - 1

(* The lowest slot idle in both the port row of [a] that starts at
   index [ia] and that of [b] at [ib], scanning from word [w]; [t.slots]
   if there is none. A slot past the frame reads as idle, hence the
   [min]. Top-level, so a scan allocates nothing. *)
let rec first_idle t (a : int array) ia (b : int array) ib w =
  if w = t.words then t.slots
  else
    let m = a.(ia + w) lor b.(ib + w) in
    if m = -1 then first_idle t a ia b ib (w + 1)
    else min t.slots ((w * word) + Netsim.Bits.ctz (lnot m))

let check_ports t ~input ~output =
  if input < 0 || input >= t.size || output < 0 || output >= t.size then raise out_of_range

let reserved_count t ~input ~output =
  check_ports t ~input ~output;
  let count = ref 0 in
  if t.cells > 0 then
    for s = 0 to t.top.(input) do
      if out_entry t s input = output + 1 then incr count
    done;
  !count

let to_reservation t =
  let r = Reservation.create t.size in
  if t.cells > 0 then
    for s = 0 to t.slots - 1 do
      for i = 0 to t.size - 1 do
        let o = out_entry t s i - 1 in
        if o >= 0 then Reservation.add r i o 1
      done
    done;
  r

type add_outcome = {
  steps : int;
  moves : (int * int * int * int) list;
}

(* First fit: the first slot in which the input (or the output, or
   both) is idle, or [t.slots] if there is none. *)
let first_both t ~input ~output =
  first_idle t t.in_busy (input * t.words) t.out_busy (output * t.words) 0

let first_input t ~input =
  let i = input * t.words in
  first_idle t t.in_busy i t.in_busy i 0

let first_output t ~output =
  let o = output * t.words in
  first_idle t t.out_busy o t.out_busy o 0

(* The outcome of every insertion that needs no swap chain; immutable,
   so one shared value serves them all without allocating. *)
let direct : (add_outcome, string) result = Ok { steps = 1; moves = [] }

(* The Slepian-Duguid swap chain between slots [p] and [q] (paper
   Figure 3). Inserting a connection into a slot may displace at most
   one existing connection (on the input or the output side, never
   both, given how p and q are chosen); the displaced connection is
   re-inserted into the other slot. Terminates within [n] moves. *)
let add_cell t ~input ~output =
  check_ports t ~input ~output;
  allocate t;
  let s = first_both t ~input ~output in
  if s < t.slots then begin
    place t ~slot:s ~input ~output;
    direct
  end
  else
    let p = first_input t ~input and q = first_output t ~output in
    if p = t.slots then
      Error (Printf.sprintf "input %d fully committed (inadmissible)" input)
    else if q = t.slots then
      Error (Printf.sprintf "output %d fully committed (inadmissible)" output)
    else begin
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
          let o' = out_entry t slot i - 1 in
          if o' >= 0 then Some (i, o') else None
        in
        let out_conflict =
          let i' = in_entry t slot o - 1 in
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
      Ok { steps = !steps; moves = List.rev !moves }
    end

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

(* The latest slot holding the pair is the first match scanning down
   from the input's top slot. *)
let remove_cell t ~input ~output =
  check_ports t ~input ~output;
  let s = if t.cells = 0 then -1 else latest t ~input ~want:(output + 1) t.top.(input) in
  if s >= 0 then unplace t ~slot:s ~input ~output;
  s >= 0

(* Busy bit of slot [s] in port [p]'s row, for [valid]. *)
let bit t (busy : int array) p s = (busy.((p * t.words) + (s / word)) lsr (s mod word)) land 1

let valid t =
  if Bytes.length t.out_of = 0 then t.cells = 0
  else begin
    let ok = ref true and busy = ref 0 in
    for s = 0 to t.slots - 1 do
      for i = 0 to t.size - 1 do
        let o = out_entry t s i - 1 in
        if o >= 0 then begin
          incr busy;
          if o >= t.size || in_entry t s o <> i + 1 || s > t.top.(i) then ok := false
        end;
        if bit t t.in_busy i s <> Bool.to_int (o >= 0) then ok := false
      done;
      for o = 0 to t.size - 1 do
        let i = in_entry t s o - 1 in
        if i >= 0 && (i >= t.size || out_entry t s i <> o + 1) then ok := false;
        if bit t t.out_busy o s <> Bool.to_int (i >= 0) then ok := false
      done
    done;
    (* Bits past the frame stay clear. *)
    for p = 0 to t.size - 1 do
      for s = t.slots to (t.words * word) - 1 do
        if bit t t.in_busy p s <> 0 || bit t t.out_busy p s <> 0 then ok := false
      done
    done;
    Array.iteri
      (fun i top -> if top >= 0 && out_entry t top i = 0 then ok := false)
      t.top;
    !ok && !busy = t.cells
  end

let copy t =
  { t with out_of = Bytes.copy t.out_of; in_of = Bytes.copy t.in_of;
    in_busy = Array.copy t.in_busy; out_busy = Array.copy t.out_busy; top = Array.copy t.top }

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  for s = 0 to t.slots - 1 do
    Format.fprintf fmt "  slot %d |" (s + 1);
    for i = 0 to t.size - 1 do
      let o = output_at t ~slot:s ~input:i in
      if o >= 0 then Format.fprintf fmt " %d->%d" (i + 1) (o + 1)
      else Format.fprintf fmt "     "
    done;
    Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"
