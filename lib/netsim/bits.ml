let max_size = 62

let full n =
  if n < 0 || n > max_size then invalid_arg "Bits.full: need 0 <= n <= 62";
  if n = 0 then 0 else (1 lsl n) - 1

(* SWAR popcount. Masks are at most 62 bits, so the alternating-pair
   mask only needs bits 0..60 (OCaml int literals stop at 2^62 - 1). *)
let popcount m =
  let m = m - ((m lsr 1) land 0x1555555555555555) in
  let m = (m land 0x3333333333333333) + ((m lsr 2) land 0x3333333333333333) in
  let m = (m + (m lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (m * 0x0101010101010101) lsr 56

let ctz m =
  if m = 0 then invalid_arg "Bits.ctz: zero mask";
  popcount ((m land -m) - 1)

let ones = 0x0101010101010101
let high7 = 0x0080808080808080  (* bit 7 sentinel of bytes 0..6 *)

(* select8_tab.[b * 8 + k]: index of the k-th set bit of byte b. *)
let select8_tab =
  let t = Bytes.make 2048 '\000' in
  for b = 0 to 255 do
    let k = ref 0 in
    for bit = 0 to 7 do
      if b land (1 lsl bit) <> 0 then begin
        Bytes.set t ((b * 8) + !k) (Char.chr bit);
        incr k
      end
    done
  done;
  Bytes.unsafe_to_string t

(* Byte-wise popcount prefix sums: byte j of the result is the number
   of set bits in bytes 0..j of [m]. The total therefore sits in the
   top byte, and a rank query can binary-search-by-arithmetic on the
   same word — the fused popcount/select pass [Rng.select_bit] needs
   one SWAR reduction instead of two. *)
let byte_prefix m =
  let s = m - ((m lsr 1) land 0x1555555555555555) in
  let s = (s land 0x3333333333333333) + ((s lsr 2) land 0x3333333333333333) in
  let s = (s + (s lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  s * ones

(* Index of the [k]-th set bit given [ps = byte_prefix m]. No range
   check: the caller guarantees 0 <= k < popcount m. *)
let select_at ps m k =
  (* Byte j of [y] has bit 7 set iff prefix_j > k (values stay below
     256, so bytes never carry into each other); the number of clear
     sentinels among bytes 0..6 is the target byte's index. Constant
     time with no data-dependent branches — the obvious
     clear-lowest-bit loop has an unpredictable trip count, and on an
     out-of-order core the resulting branch miss costs more than this
     whole computation. *)
  let y = ps + ((127 - k) * ones) in
  let j = popcount (lnot y land high7) in
  let before = ((ps lsl 8) lsr (8 * j)) land 0xFF in
  let byte = (m lsr (8 * j)) land 0xFF in
  (8 * j) + Char.code (String.unsafe_get select8_tab ((byte * 8) + (k - before)))

(* Index of the [k]-th set bit (ascending, 0-based). *)
let select k m =
  let ps = byte_prefix m in
  if k < 0 || k >= (ps lsr 56) land 0x7F then
    invalid_arg "Bits.select: fewer set bits than k";
  select_at ps m k

(* First set bit at index >= [ptr], wrapping to 0 past the top: the
   round-robin pointer scan of iSLIP, in two ctz's instead of a loop. *)
let rotate_first ~ptr m =
  if m = 0 then -1
  else begin
    let hi = m land lnot ((1 lsl ptr) - 1) in
    if hi <> 0 then ctz hi else ctz m
  end
