module Summary = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () = { n = 0; mean = 0.0; m2 = 0.0; min = nan; max = nan }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if t.n = 1 then begin
      t.min <- x;
      t.max <- x
    end else begin
      if x < t.min then t.min <- x;
      if x > t.max then t.max <- x
    end

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.mean
  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)
  let min t = t.min
  let max t = t.max

  let pp fmt t =
    Format.fprintf fmt "n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g" t.n (mean t)
      (stddev t) t.min t.max
end

module Distribution = struct
  type t = {
    mutable samples : float array;
    mutable size : int;
    mutable sorted : bool;
  }

  let create () = { samples = [||]; size = 0; sorted = true }

  let add t x =
    let cap = Array.length t.samples in
    if t.size = cap then begin
      let ncap = if cap = 0 then 256 else cap * 2 in
      let a = Array.make ncap 0.0 in
      Array.blit t.samples 0 a 0 t.size;
      t.samples <- a
    end;
    t.samples.(t.size) <- x;
    t.size <- t.size + 1;
    t.sorted <- false

  let count t = t.size

  let mean t =
    if t.size = 0 then 0.0
    else begin
      let sum = ref 0.0 in
      for i = 0 to t.size - 1 do
        sum := !sum +. t.samples.(i)
      done;
      !sum /. float_of_int t.size
    end

  (* In-place heapsort of a.(0 .. len-1): no scratch copy, and
     Float.compare instead of polymorphic compare. *)
  let sort_range a len =
    let swap i j =
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    in
    let rec sift i len =
      let l = (2 * i) + 1 in
      if l < len then begin
        let m = if l + 1 < len && Float.compare a.(l) a.(l + 1) < 0 then l + 1 else l in
        if Float.compare a.(i) a.(m) < 0 then begin
          swap i m;
          sift m len
        end
      end
    in
    for i = (len / 2) - 1 downto 0 do
      sift i len
    done;
    for k = len - 1 downto 1 do
      swap 0 k;
      sift 0 k
    done

  let ensure_sorted t =
    if not t.sorted then begin
      sort_range t.samples t.size;
      t.sorted <- true
    end

  let percentile t p =
    if t.size = 0 then nan
    else begin
      ensure_sorted t;
      let rank = p /. 100.0 *. float_of_int (t.size - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = int_of_float (Float.ceil rank) in
      let frac = rank -. float_of_int lo in
      (t.samples.(lo) *. (1.0 -. frac)) +. (t.samples.(hi) *. frac)
    end

  let median t = percentile t 50.0

  let max t =
    if t.size = 0 then nan
    else begin
      ensure_sorted t;
      t.samples.(t.size - 1)
    end
end

module Int_distribution = struct
  type t = {
    mutable counts : int array;  (* counts.(v): samples equal to v *)
    mutable size : int;
    mutable sum : int;
    mutable max : int;
  }

  let create () = { counts = [||]; size = 0; sum = 0; max = 0 }

  let grow t v =
    let cap = ref (max 256 (Array.length t.counts)) in
    while !cap <= v do
      cap := !cap * 2
    done;
    let a = Array.make !cap 0 in
    Array.blit t.counts 0 a 0 (Array.length t.counts);
    t.counts <- a

  let add t v =
    if v < 0 then invalid_arg "Stats.Int_distribution.add: negative sample";
    if v >= Array.length t.counts then grow t v;
    t.counts.(v) <- t.counts.(v) + 1;
    t.size <- t.size + 1;
    t.sum <- t.sum + v;
    if v > t.max then t.max <- v

  let count t = t.size

  (* Distribution sums the same values as floats; every partial sum is
     an integer below 2^53, so both reach the same float. *)
  let mean t = if t.size = 0 then 0.0 else float_of_int t.sum /. float_of_int t.size

  (* Distribution's rank and interpolation, with the lo-th and hi-th
     smallest samples found by one cumulative scan instead of a sort. *)
  let percentile t p =
    if t.size = 0 then nan
    else begin
      let rank = p /. 100.0 *. float_of_int (t.size - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = int_of_float (Float.ceil rank) in
      if lo < 0 || hi >= t.size then
        invalid_arg "Stats.Int_distribution.percentile: p outside [0, 100]";
      let frac = rank -. float_of_int lo in
      (* [seen] counts the samples <= [v]. *)
      let v = ref 0 and seen = ref t.counts.(0) in
      while !seen <= lo do
        incr v;
        seen := !seen + t.counts.(!v)
      done;
      let v_lo = !v in
      while !seen <= hi do
        incr v;
        seen := !seen + t.counts.(!v)
      done;
      (float_of_int v_lo *. (1.0 -. frac)) +. (float_of_int !v *. frac)
    end

  let median t = percentile t 50.0
  let max t = if t.size = 0 then nan else float_of_int t.max
end
