(* The bench harness layer every bench executable links: the one
   argv parser, the one timer and the one JSON writer, plus the
   report formatting of the experiment harness. *)

(* ---- command line ---- *)

type arg =
  | Flag of (unit -> unit)
  | Value of (string -> unit)  (** takes the next word *)
  | Rest of (string list -> unit)  (** takes every word after it *)

(* Parse argv against [specs]. A usage error prints one line on stderr
   and exits 2 before anything runs. *)
let parse_argv ~usage specs =
  let prog = Filename.(remove_extension (basename Sys.argv.(0))) in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "%s: %s (usage: %s %s)\n" prog m prog usage;
        exit 2)
      fmt
  in
  let rec go = function
    | [] -> ()
    | word :: rest -> (
      match (List.assoc_opt word specs, rest) with
      | Some (Flag f), _ ->
        f ();
        go rest
      | Some (Value f), v :: rest ->
        f v;
        go rest
      | Some (Value _), [] -> fail "%s requires a value" word
      | Some (Rest f), _ -> f rest
      | None, _ -> fail "unknown argument %s" word)
  in
  go (List.tl (Array.to_list Sys.argv))

type cli = { smoke : bool; out : string }

(* The harnesses' command line: [--smoke] for a short run, [--out FILE]
   for where the JSON goes. *)
let cli ~default_out =
  let smoke = ref false and out = ref default_out in
  parse_argv ~usage:"[--smoke] [--out FILE]"
    [
      ("--smoke", Flag (fun () -> smoke := true));
      ("--out", Value (( := ) out));
    ];
  { smoke = !smoke; out = !out }

(* ---- timing ---- *)

(* [f ()] and its wall seconds, on the clock that never goes back. *)
let time f =
  let t0 = Netsim.Time.monotonic_ns () in
  let r = f () in
  (r, float_of_int (Netsim.Time.monotonic_ns () - t0) /. 1e9)

type sample = { ops : int; ns_per_op : float; words_per_op : float }

(* Call [f] [ops] times after a warm-up of up to 1000 calls; the cost
   per call in wall nanoseconds and minor-heap words. The words are
   read inside the timed closure, so the timer's own allocation does
   not count. *)
let measure ~ops f =
  for _ = 1 to min ops 1000 do
    f ()
  done;
  let words, seconds =
    time (fun () ->
        let w0 = Gc.minor_words () in
        for _ = 1 to ops do
          f ()
        done;
        Gc.minor_words () -. w0)
  in
  {
    ops;
    ns_per_op = seconds *. 1e9 /. float_of_int ops;
    words_per_op = words /. float_of_int ops;
  }

(* ---- JSON ---- *)

let int i = Obs.Json.Num (float_of_int i)

(* The measured tree: the checked-out commit, "-dirty" when the working
   tree differs from it. *)
let commit () =
  try
    let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
    let c = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic : Unix.process_status);
    c
  with Unix.Unix_error _ -> "unknown"

(* Write [body] to the [--out] file behind the envelope every harness
   shares, and say so on stdout. *)
let write_json cli ~schema body =
  let doc =
    Obs.Json.Obj
      (("schema", Obs.Json.Str schema)
      :: ("smoke", Obs.Json.Bool cli.smoke)
      :: ("commit", Obs.Json.Str (commit ()))
      :: ("nproc", int (Domain.recommended_domain_count ()))
      :: body)
  in
  Out_channel.with_open_text cli.out (fun oc ->
      output_string oc (Obs.Json.to_string doc);
      output_char oc '\n');
  Printf.printf "wrote %s\n%!" cli.out

(* ---- experiment report ---- *)

let header eid ~paper ~claim =
  Printf.printf "\n%s\n" (String.make 78 '=');
  Printf.printf "[%s] %s\n" eid paper;
  Printf.printf "claim: %s\n" claim;
  Printf.printf "%s\n" (String.make 78 '-')

let row fmt = Printf.printf fmt

let shape name ok =
  Printf.printf "shape[%s]: %s\n" name (if ok then "HOLDS" else "VIOLATED")

let section title = Printf.printf "\n-- %s --\n" title

(* Replicate a measurement over several seeds; returns (mean, stddev). *)
let replicate ~seeds f =
  let stats = Netsim.Stats.Summary.create () in
  List.iter (fun seed -> Netsim.Stats.Summary.add stats (f seed)) seeds;
  (Netsim.Stats.Summary.mean stats, Netsim.Stats.Summary.stddev stats)
