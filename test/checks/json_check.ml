(* json_check FILE...: exit 1 naming the first FILE that is not one
   well-formed JSON document, or, for a .jsonl file, not a non-empty
   sequence of one document per line. Parses with Obs.Json, the reader
   that an2sim report uses. *)

let check file =
  let text = In_channel.with_open_bin file In_channel.input_all in
  let docs =
    if Filename.check_suffix file ".jsonl" then
      List.filter (( <> ) "") (String.split_on_char '\n' text)
    else [ text ]
  in
  if docs = [] then (Printf.eprintf "%s: no JSON lines\n" file; exit 1);
  List.iteri
    (fun i doc ->
      try ignore (Obs.Json.parse doc : Obs.Json.t)
      with Obs.Json.Bad msg ->
        Printf.eprintf "%s: document %d: %s\n" file (i + 1) msg;
        exit 1)
    docs

let () = Array.iteri (fun i file -> if i > 0 then check file) Sys.argv
