(* Versioned binary snapshot container. See snapshot.mli for the
   format contract; the key property is canonical encoding — equal
   state yields equal bytes — so resume-equality can be proven by
   byte comparison. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt
let corrupt_msg msg = raise (Corrupt msg)

(* CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320). *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1)
           else c := !c lsr 1
         done;
         !c))

let crc32_sub s pos len =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code (String.unsafe_get s i)) land 0xff)
         lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = crc32_sub s 0 (String.length s)

type section = { name : string; version : int; payload : string }

let section_name s = s.name
let section_version s = s.version

module W = struct
  type t = Buffer.t

  let int b v =
    Buffer.add_int64_le b (Int64.of_int v)

  let bool b v = Buffer.add_char b (if v then '\001' else '\000')
  let float b v = Buffer.add_int64_le b (Int64.bits_of_float v)

  let string b s =
    int b (String.length s);
    Buffer.add_string b s

  let int_array b a =
    int b (Array.length a);
    Array.iter (fun v -> int b v) a

  let int_list b l =
    int b (List.length l);
    List.iter (fun v -> int b v) l
end

module R = struct
  type t = { src : string; mutable pos : int; stop : int }

  let need r n =
    if r.stop - r.pos < n then
      corrupt "truncated payload: need %d bytes, have %d" n (r.stop - r.pos)

  let int r =
    need r 8;
    let v = Int64.to_int (String.get_int64_le r.src r.pos) in
    r.pos <- r.pos + 8;
    v

  let bool r =
    need r 1;
    let c = String.get r.src r.pos in
    r.pos <- r.pos + 1;
    match c with
    | '\000' -> false
    | '\001' -> true
    | c -> corrupt "bad bool byte %#x" (Char.code c)

  let float r =
    need r 8;
    let v = Int64.float_of_bits (String.get_int64_le r.src r.pos) in
    r.pos <- r.pos + 8;
    v

  let string r =
    let n = int r in
    if n < 0 then corrupt "negative string length %d" n;
    need r n;
    let s = String.sub r.src r.pos n in
    r.pos <- r.pos + n;
    s

  let int_array r =
    let n = int r in
    if n < 0 then corrupt "negative array length %d" n;
    need r (8 * n);
    Array.init n (fun _ -> int r)

  let int_list r = Array.to_list (int_array r)

  let remaining r = r.stop - r.pos
  let corrupt = corrupt_msg
end

let max_name = 255

let make ~name ~version f =
  if String.length name = 0 || String.length name > max_name then
    invalid_arg "Snapshot.make: section name length";
  let b = Buffer.create 256 in
  f b;
  { name; version; payload = Buffer.contents b }

let read sec ~name ~version f =
  if sec.name <> name then
    corrupt "section name mismatch: expected %S, got %S" name sec.name;
  if sec.version <> version then
    corrupt "section %S version mismatch: expected %d, got %d" name version
      sec.version;
  let r =
    { R.src = sec.payload; pos = 0; stop = String.length sec.payload }
  in
  let v = f r in
  if R.remaining r <> 0 then
    corrupt "section %S: %d unconsumed payload bytes" name (R.remaining r);
  v

let magic = "AN2SNAP\x01"
let format_version = 1

let add_u32 b v =
  Buffer.add_int32_le b (Int32.of_int (v land 0xFFFFFFFF))

let encode sections =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  add_u32 b format_version;
  add_u32 b (List.length sections);
  List.iter
    (fun s ->
      Buffer.add_uint16_le b (String.length s.name);
      Buffer.add_string b s.name;
      add_u32 b s.version;
      add_u32 b (String.length s.payload);
      Buffer.add_string b s.payload;
      add_u32 b (crc32 s.payload))
    sections;
  let body = Buffer.contents b in
  add_u32 b (crc32 body);
  Buffer.contents b

let decode s =
  let len = String.length s in
  let need pos n what =
    if len - pos < n then corrupt "truncated snapshot: %s" what
  in
  let get_u32 pos =
    Int32.to_int (String.get_int32_le s pos) land 0xFFFFFFFF
  in
  need 0 (String.length magic + 8) "header";
  if String.sub s 0 (String.length magic) <> magic then
    corrupt "bad magic (not a snapshot file)";
  let pos = String.length magic in
  let fv = get_u32 pos in
  if fv <> format_version then
    corrupt "unknown snapshot format version %d (expected %d)" fv
      format_version;
  let n_sections = get_u32 (pos + 4) in
  let pos = ref (pos + 8) in
  (* File CRC covers everything before the trailing 4 bytes. *)
  need 0 (!pos + 4) "file checksum";
  let body_len = len - 4 in
  if get_u32 body_len <> crc32_sub s 0 body_len then
    corrupt "file checksum mismatch";
  let sections = ref [] in
  for _ = 1 to n_sections do
    need !pos 2 "section name length";
    let nlen = Char.code s.[!pos] lor (Char.code s.[!pos + 1] lsl 8) in
    pos := !pos + 2;
    need !pos nlen "section name";
    let name = String.sub s !pos nlen in
    pos := !pos + nlen;
    need !pos 12 "section header";
    let version = get_u32 !pos in
    let plen = get_u32 (!pos + 4) in
    pos := !pos + 8;
    if body_len - !pos < plen + 4 then
      corrupt "truncated snapshot: section %S payload" name;
    let payload = String.sub s !pos plen in
    pos := !pos + plen;
    if get_u32 !pos <> crc32 payload then
      corrupt "section %S payload checksum mismatch" name;
    pos := !pos + 4;
    sections := { name; version; payload } :: !sections
  done;
  if !pos <> body_len then
    corrupt "trailing garbage: %d bytes after last section" (body_len - !pos);
  List.rev !sections

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let data = really_input_string ic n in
  close_in ic;
  decode data

(* Digest the section contents with *no* embedded CRC fields. CRC-32
   is linear over GF(2), so a span that carries data followed by that
   data's own CRC annihilates differences: any two snapshots differing
   only within a same-length payload would digest identically (the
   payload diff and its CRC diff cancel — the same algebra that makes
   crc(m ++ crc(m)) the constant residue 0x2144DF1C). Digesting
   name | version | length | payload per section avoids the trap. *)
let digest sections =
  let b = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string b s.name;
      add_u32 b s.version;
      add_u32 b (String.length s.payload);
      Buffer.add_string b s.payload)
    sections;
  crc32 (Buffer.contents b)
