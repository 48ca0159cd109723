(* SplitMix64, computed on pairs of 32-bit native-int limbs.

   The obvious implementation (see [bits64] in git history) works on
   boxed [Int64]s; without flambda every intermediate allocates, which
   puts ~25 minor-heap words under *every* random draw — and the
   matching kernels draw ~100 times per cell slot. The limb form below
   produces bit-identical streams (test_netsim checks it against an
   Int64 reference) using only unboxed int arithmetic, so a draw
   allocates nothing.

   Representation: a 64-bit word w is (hi, lo) with w = hi * 2^32 + lo
   and 0 <= hi, lo < 2^32. [zhi]/[zlo] hold the latest mixed output so
   that [step] needs no return value (returning a pair would box). *)

type t = {
  mutable hi : int;
  mutable lo : int;
  mutable zhi : int;
  mutable zlo : int;
}

let mask32 = 0xFFFFFFFF

(* golden gamma 0x9E3779B97F4A7C15, mix constants 0xBF58476D1CE4E5B9
   and 0x94D049BB133111EB, each split into 32-bit halves. *)
let gamma_hi = 0x9E3779B9
let gamma_lo = 0x7F4A7C15
let c1_hi = 0xBF58476D
let c1_lo = 0x1CE4E5B9
let c2_hi = 0x94D049BB
let c2_lo = 0x133111EB

let create seed =
  (* Matches Int64.of_int's sign extension of the 63-bit seed. *)
  { hi = (seed asr 32) land mask32; lo = seed land mask32; zhi = 0; zlo = 0 }

(* Advance the state by gamma and store the mixed output in zhi/zlo.

   The 64-bit multiplies exploit that both mix constants have their
   low limb below 2^31: [zlo * c_lo] then fits the 63-bit native int
   exactly (giving low word and carry in one product), and the two
   cross terms are only needed modulo 2^32, which wrap-around native
   multiplication preserves (2^32 divides 2^63). Three multiplies per
   64-bit product instead of a full 16-bit-limb schoolbook. *)
let step t =
  let lo = t.lo + gamma_lo in
  let hi = (t.hi + gamma_hi + (lo lsr 32)) land mask32 in
  let lo = lo land mask32 in
  t.hi <- hi;
  t.lo <- lo;
  (* z ^= z >>> 30 *)
  let zlo = lo lxor (((hi lsl 2) lor (lo lsr 30)) land mask32) in
  let zhi = hi lxor (hi lsr 30) in
  (* z *= c1 *)
  let p = zlo * c1_lo in
  let cross = ((zlo * c1_hi) + (zhi * c1_lo)) land mask32 in
  let zhi = ((p lsr 32) + cross) land mask32 in
  let zlo = p land mask32 in
  (* z ^= z >>> 27 *)
  let zlo = zlo lxor (((zhi lsl 5) lor (zlo lsr 27)) land mask32) in
  let zhi = zhi lxor (zhi lsr 27) in
  (* z *= c2 *)
  let p = zlo * c2_lo in
  let cross = ((zlo * c2_hi) + (zhi * c2_lo)) land mask32 in
  let zhi = ((p lsr 32) + cross) land mask32 in
  let zlo = p land mask32 in
  (* z ^= z >>> 31 *)
  t.zlo <- zlo lxor (((zhi lsl 1) lor (zlo lsr 31)) land mask32);
  t.zhi <- zhi lxor (zhi lsr 31)

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
