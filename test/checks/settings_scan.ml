(* Count the settable values each library interface exports: every
   optional argument ([?name:]) and every field of a record type named
   params, config, thresholds, timing or profile. Prints one line per
   file, "<count> <path>", sorted by path, then the total. Comments
   are skipped.

   Usage: settings_scan.exe FILE.mli...

   A rule in this directory diffs the output against settings.txt, so
   a new setting shows up as a change to that file; `dune promote`
   records it. *)

let settings_types = [ "params"; "config"; "thresholds"; "timing"; "profile" ]

(* The text with every (possibly nested) comment replaced by a space.
   String literals are not tracked: interfaces put none that hold a
   comment opener. *)
let strip_comments s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let depth = ref 0 in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && s.[!i] = '(' && s.[!i + 1] = '*' then begin
      incr depth;
      i := !i + 2
    end
    else if !depth > 0 && !i + 1 < n && s.[!i] = '*' && s.[!i + 1] = ')' then begin
      decr depth;
      if !depth = 0 then Buffer.add_char b ' ';
      i := !i + 2
    end
    else begin
      if !depth = 0 then Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* [?name:] occurrences. *)
let optional_args s =
  let n = String.length s in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if s.[i] = '?' && i + 1 < n && s.[i + 1] >= 'a' && s.[i + 1] <= 'z' then begin
      let j = ref (i + 1) in
      while !j < n && is_ident_char s.[!j] do incr j done;
      if !j < n && s.[!j] = ':' then incr count
    end
  done;
  !count

let words s =
  String.split_on_char ' '
    (String.map (function '\n' | '\t' | '\r' -> ' ' | c -> c) s)
  |> List.filter (( <> ) "")

(* Fields of [type NAME = { ... }] (or [and NAME = { ... }]) for the
   settings type names: the semicolon-separated [name : type]
   declarations between the braces. *)
let record_fields s =
  let n = String.length s in
  let count = ref 0 in
  let rec scan from =
    match String.index_from_opt s from '{' with
    | None -> ()
    | Some open_ ->
      let head =
        let start = max 0 (open_ - 64) in
        List.rev (words (String.sub s start (open_ - start)))
      in
      let close_ =
        match String.index_from_opt s open_ '}' with Some c -> c | None -> n
      in
      (match head with
      | "=" :: name :: kw :: _
        when List.mem name settings_types && (kw = "type" || kw = "and") ->
        String.sub s (open_ + 1) (close_ - open_ - 1)
        |> String.split_on_char ';'
        |> List.iter (fun decl -> if String.contains decl ':' then incr count)
      | _ -> ());
      if close_ < n then scan (close_ + 1)
  in
  scan 0;
  !count

let strip_prefix path =
  let rec go p =
    if String.length p > 3 && String.sub p 0 3 = "../" then
      go (String.sub p 3 (String.length p - 3))
    else p
  in
  go path

let () =
  let files =
    Array.to_list Sys.argv |> List.tl
    |> List.sort (fun a b -> compare (strip_prefix a) (strip_prefix b))
  in
  let total =
    List.fold_left
      (fun total file ->
        let text = strip_comments (In_channel.with_open_bin file In_channel.input_all) in
        let count = optional_args text + record_fields text in
        Printf.printf "%d %s\n" count (strip_prefix file);
        total + count)
      0 files
  in
  Printf.printf "%d total\n" total
