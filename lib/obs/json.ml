(* A minimal JSON parser — the repo deliberately has no JSON library,
   and the exporters hand-print their output, so round-trip tests and
   the [an2sim report] renderer parse it back by hand. Only what
   Chrome-trace/metrics/heartbeat JSON needs: objects, arrays, strings
   (with escapes), numbers, true/false/null. The printer below writes
   the bench harnesses' JSON. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\255' in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected %c" c);
    advance ()
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'u' ->
           advance ();
           (* Four hex digits, validated by hand: [int_of_string]
              would also accept underscores and signs. *)
           let hex4 () =
             if !pos + 4 > n then fail "truncated \\u escape";
             let v = ref 0 in
             for i = !pos to !pos + 3 do
               let d =
                 match s.[i] with
                 | '0' .. '9' as c -> Char.code c - Char.code '0'
                 | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
                 | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
                 | _ -> fail "bad \\u escape"
               in
               v := (!v lsl 4) lor d
             done;
             pos := !pos + 4;
             !v
           in
           let code = hex4 () in
           let cp =
             if code >= 0xD800 && code <= 0xDBFF then begin
               (* High surrogate: must pair with a following \uDC00-
                  \uDFFF; the pair names one astral code point. *)
               if
                 !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
               then begin
                 pos := !pos + 2;
                 let lo = hex4 () in
                 if lo < 0xDC00 || lo > 0xDFFF then
                   fail "unpaired high surrogate";
                 0x10000 + ((code - 0xD800) lsl 10) + (lo - 0xDC00)
               end
               else fail "unpaired high surrogate"
             end
             else if code >= 0xDC00 && code <= 0xDFFF then
               fail "unpaired low surrogate"
             else code
           in
           Buffer.add_utf_8_uchar b (Uchar.of_int cp);
           (* The shared [advance] below expects the cursor on the
              escape's last consumed character. *)
           pos := !pos - 1
         | c -> fail (Printf.sprintf "bad escape %c" c));
        advance ();
        loop ()
      | '\255' -> fail "unterminated string"
      | c ->
        Buffer.add_char b c;
        advance ();
        loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while num_char (peek ()) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (key, v) :: !fields;
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            members ()
          | '}' -> advance ()
          | _ -> fail "expected , or }"
        in
        members ();
        Obj (List.rev !fields)
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin
        advance ();
        Arr []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            elements ()
          | ']' -> advance ()
          | _ -> fail "expected , or ]"
        in
        elements ();
        Arr (List.rev !items)
      end
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function
  | Obj fields -> (
    match List.assoc_opt key fields with
    | Some v -> v
    | None -> raise (Bad ("missing key " ^ key)))
  | _ -> raise (Bad "not an object")

let member_opt key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let str = function Str s -> s | _ -> raise (Bad "not a string")
let num = function Num x -> x | _ -> raise (Bad "not a number")
let arr = function Arr l -> l | _ -> raise (Bad "not an array")
let obj = function Obj l -> l | _ -> raise (Bad "not an object")

(* ---- printer ---- *)

(* Integral values below 1e17 print every digit with "%.0f"; any
   other finite value takes the fewest significant digits that read
   back to it. *)
let number x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e17 then Printf.sprintf "%.0f" x
  else
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p x in
      if p >= 17 || float_of_string s = x then s else shortest (p + 1)
    in
    shortest 1

let rec has_obj = function
  | Obj _ -> true
  | Arr items -> List.exists has_obj items
  | Null | Bool _ | Num _ | Str _ -> false

let to_string v =
  let b = Buffer.create 1024 in
  let add = Buffer.add_string b in
  let quoted s =
    add "\"";
    add (Metrics.json_escape s);
    add "\""
  in
  let rec value indent = function
    | Null -> add "null"
    | Bool x -> add (string_of_bool x)
    | Num x -> add (number x)
    | Str s -> quoted s
    | Arr items -> members indent ("[", "]") (List.map (fun v -> (None, v)) items)
    | Obj fields ->
      members indent ("{", "}") (List.map (fun (k, v) -> (Some k, v)) fields)
  and members indent (op, cl) items =
    let inner = indent ^ "  " in
    let one_line = not (List.exists (fun (_, v) -> has_obj v) items) in
    add op;
    List.iteri
      (fun i (key, v) ->
        if i > 0 then add (if one_line then ", " else ",");
        if not one_line then add ("\n" ^ inner);
        Option.iter
          (fun k ->
            quoted k;
            add ": ")
          key;
        value inner v)
      items;
    if not one_line then add ("\n" ^ indent);
    add cl
  in
  value "" v;
  Buffer.contents b
