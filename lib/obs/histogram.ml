(* Log-bucketed histogram: values map to geometrically spaced buckets
   (DDSketch-style), so percentile queries carry a bounded *relative*
   error without keeping the samples. With eps = 0.01 the bucket base
   is gamma = (1+eps)/(1-eps) and the representative of a bucket is at
   most sqrt(gamma) away from any value it holds: ~1.01% error.

   2048 preallocated buckets centred on 1.0 cover gamma^±1024, about
   1e-9 .. 1e9 — more than the dynamic range of any delay, occupancy
   or iteration count the simulators produce. Adds are O(1) with no
   allocation, which is what lets an enabled sink ride inside the
   fabric slot loop. *)

let eps = 0.01
let gamma = (1.0 +. eps) /. (1.0 -. eps)
let ln_gamma = log gamma
let inv_ln_gamma = 1.0 /. ln_gamma
let n_buckets = 2048
let offset = n_buckets / 2

let error_bound = sqrt gamma -. 1.0

type t = {
  mutable count : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
  mutable zero : int;  (* values <= 0 land here, represented as 0 *)
  buckets : int array;
}

let create () =
  {
    count = 0;
    sum = 0.0;
    vmin = nan;
    vmax = nan;
    zero = 0;
    buckets = Array.make n_buckets 0;
  }

let bucket_of x = offset + int_of_float (Float.round (log x *. inv_ln_gamma))

let value_of i = exp (float_of_int (i - offset) *. ln_gamma)

let add t x =
  t.count <- t.count + 1;
  t.sum <- t.sum +. x;
  if t.count = 1 then begin
    t.vmin <- x;
    t.vmax <- x
  end
  else begin
    if x < t.vmin then t.vmin <- x;
    if x > t.vmax then t.vmax <- x
  end;
  if x > 0.0 then begin
    let i = bucket_of x in
    let i = if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i in
    t.buckets.(i) <- t.buckets.(i) + 1
  end
  else t.zero <- t.zero + 1

(* Bucket-wise sum: exact for count/sum/zero/min/max, and percentiles
   of the merge are as if every sample had been added to [into]
   directly (buckets are positional, so addition commutes with
   bucketing). *)
let merge_into ~into src =
  if src.count > 0 then begin
    if into.count = 0 then begin
      into.vmin <- src.vmin;
      into.vmax <- src.vmax
    end
    else begin
      if src.vmin < into.vmin then into.vmin <- src.vmin;
      if src.vmax > into.vmax then into.vmax <- src.vmax
    end;
    into.count <- into.count + src.count;
    into.sum <- into.sum +. src.sum;
    into.zero <- into.zero + src.zero;
    for i = 0 to n_buckets - 1 do
      into.buckets.(i) <- into.buckets.(i) + src.buckets.(i)
    done
  end

let count t = t.count
let sum t = t.sum
let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count
let min t = t.vmin
let max t = t.vmax

(* Nearest-rank percentile over buckets: the value returned is the
   representative of the bucket holding the round(p/100*(n-1))-th
   smallest sample, clamped into [min, max] (clamping only ever moves
   the estimate toward the true sample, which lies in that range). *)
let percentile t p =
  if t.count = 0 then nan
  else begin
    let rank =
      int_of_float (Float.round (p /. 100.0 *. float_of_int (t.count - 1)))
    in
    let rank = if rank < 0 then 0 else if rank >= t.count then t.count - 1 else rank in
    let need = rank + 1 in
    let clamp v =
      if v < t.vmin then t.vmin else if v > t.vmax then t.vmax else v
    in
    if t.zero >= need then clamp 0.0
    else begin
      let cum = ref t.zero in
      let i = ref 0 in
      let res = ref t.vmax in
      let found = ref false in
      while (not !found) && !i < n_buckets do
        cum := !cum + t.buckets.(!i);
        if !cum >= need then begin
          res := clamp (value_of !i);
          found := true
        end;
        incr i
      done;
      !res
    end
  end

let median t = percentile t 50.0

let pp fmt t =
  Format.fprintf fmt "n=%d mean=%.4g min=%.4g max=%.4g p50=%.4g p99=%.4g"
    t.count (mean t) t.vmin t.vmax (percentile t 50.0) (percentile t 99.0)
