(* Wall-clock spans recorded by the bench around its own calls into each
   library layer, keyed "<layer>.<fn>". Each span carries its parent, so
   a layer's self time is its duration minus what its direct children
   cover; minor words are counted the same way. Spans stay in memory:
   every one feeds the per-name ledger, and the first [keep_max] (plus
   the first ten of each name, so enclosing spans that finish late are
   not lost) are kept verbatim for the Chrome trace written at exit.

   Off (the default), [run] is a plain call, so the untraced reps that
   produce the end-to-end metrics pay nothing. *)

type stat = {
  mutable calls : int;
  mutable total_ns : int;
  mutable self_ns : int;
  mutable total_words : int;
  mutable self_words : int;
  composite : bool;
      (* wraps an entry point that drives several layers at once; its
         self time is not attributed to any one layer *)
}

type frame = {
  name : string;
  id : int;
  parent : int;
  start : int;
  start_words : int;
  mutable child_ns : int;
  mutable child_words : int;
}

type event = { e_name : string; e_id : int; e_parent : int; e_start : int; e_dur : int; e_words : int }

let enabled = ref false
let ledger : (string, stat) Hashtbl.t = Hashtbl.create 32
let stack : frame list ref = ref []
let next_id = ref 0
let keep_max = 20_000
let kept : event list ref = ref []
let n_kept = ref 0
let n_spans = ref 0

let now () = Netsim.Time.monotonic_ns ()
let words () = int_of_float (Gc.minor_words ())

let finish ~composite f =
  let dur = now () - f.start and w = words () - f.start_words in
  stack := List.tl !stack;
  (match !stack with
   | p :: _ ->
     p.child_ns <- p.child_ns + dur;
     p.child_words <- p.child_words + w
   | [] -> ());
  let s =
    match Hashtbl.find_opt ledger f.name with
    | Some s -> s
    | None ->
      let s =
        { calls = 0; total_ns = 0; self_ns = 0; total_words = 0; self_words = 0; composite }
      in
      Hashtbl.add ledger f.name s;
      s
  in
  s.calls <- s.calls + 1;
  s.total_ns <- s.total_ns + dur;
  s.self_ns <- s.self_ns + dur - f.child_ns;
  s.total_words <- s.total_words + w;
  s.self_words <- s.self_words + w - f.child_words;
  incr n_spans;
  if !n_kept < keep_max || s.calls <= 10 then begin
    incr n_kept;
    kept :=
      { e_name = f.name; e_id = f.id; e_parent = f.parent; e_start = f.start; e_dur = dur; e_words = w }
      :: !kept
  end

let run ?(composite = false) name g =
  if not !enabled then g ()
  else begin
    incr next_id;
    let parent = match !stack with p :: _ -> p.id | [] -> 0 in
    let f =
      { name; id = !next_id; parent; start = now (); start_words = words (); child_ns = 0; child_words = 0 }
    in
    stack := f :: !stack;
    match g () with
    | v ->
      finish ~composite f;
      v
    | exception e ->
      finish ~composite f;
      raise e
  end

let stat name = Hashtbl.find_opt ledger name
let total_ns name = match stat name with Some s -> s.total_ns | None -> 0
let self_ms name = match stat name with Some s -> float_of_int s.self_ns /. 1e6 | None -> 0.0

(* Per-call cost of a span, 0 when it never ran. *)
let per_call name field =
  match stat name with
  | Some s when s.calls > 0 -> float_of_int (field s) /. float_of_int s.calls
  | _ -> 0.0

(* Self time of every span that belongs to a single layer. *)
let attributed_ns () =
  Hashtbl.fold (fun _ s acc -> if s.composite then acc else acc + s.self_ns) ledger 0

(* Chrome trace_event JSON: one complete ("X") event per kept span,
   timestamps in microseconds from the earliest span. *)
let write_chrome file =
  let evs = List.rev !kept in
  let t0 = List.fold_left (fun m e -> min m e.e_start) max_int evs in
  let oc = open_out file in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i e ->
      let layer = match String.index_opt e.e_name '.' with Some j -> String.sub e.e_name 0 j | None -> e.e_name in
      Printf.fprintf oc
        "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \
         \"args\": {\"id\": %d, \"parent\": %d, \"minor_words\": %d}}"
        (if i = 0 then "" else ",\n")
        e.e_name layer
        (float_of_int (e.e_start - t0) /. 1e3)
        (float_of_int e.e_dur /. 1e3)
        e.e_id e.e_parent e.e_words)
    evs;
  Printf.fprintf oc "\n], \"otherData\": {\"spans\": %d, \"kept\": %d}}\n" !n_spans !n_kept;
  close_out oc
