(* SplitMix64, with the state kept in 32-bit native-int limbs.

   [step] does the mix on local [Int64]s. ocamlopt keeps an [Int64]
   that is let-bound and only fed to other [Int64] primitives unboxed
   even without flambda, so a draw allocates nothing (test_netsim
   counts the minor words of 10^5 draws), and the stream is
   bit-identical to the textbook form (test_netsim checks it against
   an Int64 reference). Only a boxed [Int64] that escapes, as a record
   field, an argument or a return value, would allocate; so the state
   and the latest output live in the record as int limbs.

   Representation: a 64-bit word w is (hi, lo) with w = hi * 2^32 + lo
   and 0 <= hi, lo < 2^32. [zhi]/[zlo] hold the latest mixed output so
   that [step] needs no return value (returning it would box). *)

type t = {
  mutable hi : int;
  mutable lo : int;
  mutable zhi : int;
  mutable zlo : int;
}

let mask32 = 0xFFFFFFFF

let create seed =
  (* Matches Int64.of_int's sign extension of the 63-bit seed. *)
  { hi = (seed asr 32) land mask32; lo = seed land mask32; zhi = 0; zlo = 0 }

(* Advance the state by gamma and store the mixed output in zhi/zlo. *)
let step t =
  let s = Int64.logor (Int64.shift_left (Int64.of_int t.hi) 32) (Int64.of_int t.lo) in
  let s = Int64.add s 0x9E3779B97F4A7C15L in
  t.hi <- Int64.to_int (Int64.shift_right_logical s 32);
  t.lo <- Int64.to_int s land mask32;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  t.zhi <- Int64.to_int (Int64.shift_right_logical z 32);
  t.zlo <- Int64.to_int z land mask32

let bits64 t =
  step t;
  Int64.logor (Int64.shift_left (Int64.of_int t.zhi) 32) (Int64.of_int t.zlo)

let split t =
  step t;
  { hi = t.zhi; lo = t.zlo; zhi = 0; zlo = 0 }

let copy t = { hi = t.hi; lo = t.lo; zhi = t.zhi; zlo = t.zlo }

(* Reciprocal tables for exact division-free [v mod n], n <= 62 (every
   draw the matching kernels make). With a < 2^39 the float quotient
   estimate [a * (1/n)] is within 2^-13 of a/n, and the fractional
   part of a/n is either 0 or at least 1/62 > 2^-13, so truncation
   gives q or q-1 and one conditional subtract corrects it — no
   hardware divide (~15ns on this class of machine) anywhere. *)
let inv_tbl = Array.init 63 (fun n -> if n = 0 then 0.0 else 1.0 /. float_of_int n)
let p31_tbl = Array.init 63 (fun n -> if n = 0 then 0 else 0x80000000 mod n)

(* (z >>> 1) mod n for 1 <= n <= 62, division-free:
   v mod n = (zhi * (2^31 mod n) + (zlo >>> 1)) mod n, and since
   zhi * 61 + 2^31 < 2^39 the left side fits a double exactly, so one
   reciprocal multiply reduces it. The correction is a branchless
   [if r >= n then r - n else r] — that compare is data-random, so a
   real branch would mispredict constantly. *)
let reduce62 t n =
  let a = (t.zhi * Array.unsafe_get p31_tbl n) + (t.zlo lsr 1) in
  let q = int_of_float (float_of_int a *. Array.unsafe_get inv_tbl n) in
  let r = a - (q * n) in
  r - (n land -(Bool.to_int (r >= n)))

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  step t;
  (* v = z >>> 1 = zhi * 2^31 + (zlo >>> 1) is 63 bits, one more than
     a non-negative native int holds. *)
  if n <= 62 then
    (* One uniform path for the whole kernel range: a power-of-two
       special case here would branch on a data-random bound and
       mispredict its way past any savings. *)
    reduce62 t n
  else if n land (n - 1) = 0 && n <= 0x40000000 then
    (* n = 2^k with k <= 30 divides the 2^31 carried by zhi, so only
       the low limb matters — and no hardware division. *)
    (t.zlo lsr 1) land (n - 1)
  else if n <= 0x40000000 then begin
    (* Split v = 2*(z >>> 2) + bit1 so the quotient fits, and fold the
       doubled remainder back with a compare instead of a second
       division. *)
    let q = (t.zhi lsl 30) lor (t.zlo lsr 2) in
    let r = (2 * (q mod n)) + ((t.zlo lsr 1) land 1) in
    if r >= n then r - n else r
  end
  else
    let z =
      Int64.logor (Int64.shift_left (Int64.of_int t.zhi) 32) (Int64.of_int t.zlo)
    in
    Int64.to_int (Int64.rem (Int64.shift_right_logical z 1) (Int64.of_int n))

let below = int

(* 2^-53: scaling by it is a pure exponent shift, bit-identical to
   dividing by 2^53 but without the ~4ns fdiv. *)
let inv_2_53 = 1.1102230246251565e-16

let float t x =
  step t;
  (* 53 random bits into [0,1). *)
  let bits = float_of_int ((t.zhi lsl 21) lor (t.zlo lsr 11)) in
  bits *. inv_2_53 *. x

let bernoulli t p =
  (* float t 1.0 < p, inlined so the draw stays unboxed. *)
  step t;
  float_of_int ((t.zhi lsl 21) lor (t.zlo lsr 11)) *. inv_2_53 < p

let exponential t ~mean =
  let u = float t 1.0 in
  (* Avoid log 0. *)
  let u = if u <= 0.0 then 1e-300 else u in
  -.mean *. log u

let geometric t ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p must be in (0,1]";
  if p = 1.0 then 0
  else
    let u = float t 1.0 in
    let u = if u <= 0.0 then 1e-300 else u in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))

let pick t xs =
  match xs with
  | [] -> invalid_arg "Rng.pick: empty list"
  | _ -> List.nth xs (int t (List.length xs))

let pick_array t a =
  if Array.length a = 0 then invalid_arg "Rng.pick_array: empty array";
  a.(int t (Array.length a))

(* Draw-for-draw identical to [Bits.select (int t (Bits.popcount m)) m],
   but one fused SWAR pass serves both the popcount (draw bound) and
   the rank query, and the whole chain — prefix sums, reciprocal
   reduction, sentinel rank — is written out inline: this is the
   single hottest function in the scheduler (~40 calls per cell slot)
   and without flambda each helper would stay an outlined call. See
   {!Bits.byte_prefix} / {!Bits.select_at} for the commented forms. *)
let select_bit t m =
  let s = m - ((m lsr 1) land 0x1555555555555555) in
  let s = (s land 0x3333333333333333) + ((s lsr 2) land 0x3333333333333333) in
  let ps = ((s + (s lsr 4)) land 0x0F0F0F0F0F0F0F0F) * 0x0101010101010101 in
  let pc = (ps lsr 56) land 0x7F in
  if pc = 0 then invalid_arg "Rng.select_bit: empty mask";
  step t;
  (* k = (z >>> 1) mod pc, as in [reduce62]. *)
  let a = (t.zhi * Array.unsafe_get p31_tbl pc) + (t.zlo lsr 1) in
  let q = int_of_float (float_of_int a *. Array.unsafe_get inv_tbl pc) in
  let r = a - (q * pc) in
  let k = r - (pc land -(Bool.to_int (r >= pc))) in
  (* Rank as in [Bits.select_at], with the sentinel count done by a
     one-multiply horizontal sum instead of a full popcount. *)
  let u = lnot (ps + ((127 - k) * 0x0101010101010101)) land 0x0080808080808080 in
  let j = ((u lsr 7) * 0x0101010101010101) lsr 56 in
  let before = ((ps lsl 8) lsr (8 * j)) land 0xFF in
  let byte = (m lsr (8 * j)) land 0xFF in
  (8 * j)
  + Char.code (String.unsafe_get Bits.select8_tab ((byte * 8) + (k - before)))

(* Snapshot support: the full generator state is the four limbs. *)
let write w t =
  Snapshot.W.int w t.hi;
  Snapshot.W.int w t.lo;
  Snapshot.W.int w t.zhi;
  Snapshot.W.int w t.zlo

let read r =
  let hi = Snapshot.R.int r in
  let lo = Snapshot.R.int r in
  let zhi = Snapshot.R.int r in
  let zlo = Snapshot.R.int r in
  let check name v =
    if v < 0 || v > mask32 then
      Snapshot.R.corrupt ("Rng limb out of range: " ^ name)
  in
  check "hi" hi;
  check "lo" lo;
  check "zhi" zhi;
  check "zlo" zlo;
  { hi; lo; zhi; zlo }

let blit ~src ~dst =
  dst.hi <- src.hi;
  dst.lo <- src.lo;
  dst.zhi <- src.zhi;
  dst.zlo <- src.zlo

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
