(* gen_rules MANIFEST: print the dune rules that run every case of the
   manifest, for inclusion by test/golden/dune.

   A case is one line, NAME EXIT [ARGV], and its continuation lines: a
   line starting with '|' gives one more ARGV for the case above, and
   one starting with '|ci' gives one that only `dune build @ci` runs.
   Every ARGV of a case must exit with EXIT and print the same stdout: the
   golden NAME.txt when EXIT is 0 (a NAME with a directory part is a
   path from the repository root, so bench/golden/e20 means
   bench/golden/e20.txt), nothing at all otherwise. Stderr is not
   checked; rerun a failing command to see it. Words are separated by
   spaces. The first word of an ARGV names the program (see
   [programs]); the others pass to dune as they are, so %{dep:FILE}
   makes a fixture file a dependency. In a run that exits 0, the file
   after --trace, --metrics or --heartbeat is a rule target and must
   parse as JSON (JSON lines for --heartbeat); an @ci run writes no
   files, so plain `dune build` skips it. A line whose first word
   starts with '#' is a comment. *)

let programs =
  [
    ("an2sim", "bin/an2sim.exe");
    ("main", "bench/main.exe");
    ("perf", "bench/perf.exe");
    ("failover", "examples/failover.exe");
  ]

let artifact_flags = [ "--trace"; "--metrics"; "--heartbeat" ]

type run = { ci : bool; argv : string list }
type case = { line : int; name : string; exit : int; runs : run list }

let fail line fmt =
  Printf.ksprintf (fun m -> failwith (Printf.sprintf "manifest:%d: %s" line m)) fmt

let words s = String.split_on_char ' ' s |> List.filter (( <> ) "")

let parse file =
  let lines = In_channel.with_open_text file In_channel.input_lines in
  let add cases (line, s) =
    match (words s, cases) with
    | [], _ -> cases
    | w :: _, _ when w.[0] = '#' -> cases
    | ("|" | "|ci") :: _, [] -> fail line "a continuation line with no case above"
    | (("|" | "|ci") as mark) :: argv, c :: rest ->
      { c with runs = c.runs @ [ { ci = mark = "|ci"; argv } ] } :: rest
    | name :: exit :: argv, _ -> (
      let runs = if argv = [] then [] else [ { ci = false; argv } ] in
      match int_of_string_opt exit with
      | Some exit -> { line; name; exit; runs } :: cases
      | None -> fail line "exit code %S is not a number" exit)
    | _ -> fail line "expected NAME EXIT [ARGV]"
  in
  List.rev (List.fold_left add [] (List.mapi (fun i s -> (i + 1, s)) lines))

let quote s = "\"" ^ String.escaped s ^ "\""

let rec artifacts = function
  | flag :: file :: rest when List.mem flag artifact_flags -> file :: artifacts rest
  | _ :: rest -> artifacts rest
  | [] -> []

let print_case targets c =
  let base = Filename.basename c.name in
  let expected =
    if c.exit <> 0 then "nothing.txt"
    else if String.contains c.name '/' then "../../" ^ c.name ^ ".txt"
    else c.name ^ ".txt"
  in
  List.iteri
    (fun i { ci; argv } ->
      let out = if i = 0 then base ^ ".out" else Printf.sprintf "%s.%d.out" base (i + 1) in
      let files = if c.exit = 0 then artifacts argv else [] in
      if ci && files <> [] then fail c.line "an @ci run cannot write files";
      List.iter
        (fun t ->
          if Hashtbl.mem targets t then fail c.line "%s is written twice" t;
          Hashtbl.add targets t ())
        (out :: files);
      let prog, args =
        match argv with
        | p :: args -> (
          match List.assoc_opt p programs with
          | Some path -> ("%{exe:../../" ^ path ^ "}", args)
          | None -> fail c.line "unknown program %S" p)
        | [] -> fail c.line "empty argv"
      in
      let run = String.concat " " ("(run" :: prog :: List.map quote args) ^ ")" in
      let run =
        if c.exit = 0 then run
        else Printf.sprintf "(with-accepted-exit-codes %d %s)" c.exit run
      in
      if ci then
        Printf.printf
          "(rule (alias ci) (action (pipe-stdout (ignore-stderr %s) (run diff -u %%{dep:%s} -))))\n"
          run expected
      else begin
        Printf.printf
          "(rule (targets %s) (action (with-stdout-to %s (ignore-stderr %s))))\n"
          (String.concat " " (out :: files)) out run;
        Printf.printf "(rule (alias runtest) (action (diff %s %s)))\n" expected out
      end;
      if files <> [] then
        Printf.printf
          "(rule (alias runtest) (action (run %%{exe:../checks/json_check.exe} %s)))\n"
          (String.concat " " (List.map (fun f -> "%{dep:" ^ f ^ "}") files)))
    c.runs

let () =
  let targets = Hashtbl.create 64 in
  print_endline "(rule (write-file nothing.txt \"\"))";
  List.iter
    (fun c ->
      if c.runs = [] then fail c.line "case %s has no ARGV" c.name;
      print_case targets c)
    (parse Sys.argv.(1))
