(* Order statistics over a handful of reps. Quartiles follow Python's
   [statistics.quantiles(values, n=4)] (the "exclusive" method), so the
   spreads printed here match a reader's own check of the same values. *)

let quartiles xs =
  match List.sort compare xs with
  | [] -> (nan, nan, nan)
  | [ x ] -> (x, x, x)
  | s ->
    let a = Array.of_list s in
    let ld = Array.length a and m = Array.length a + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* Spread as a share of the median: (Q3 - Q1) / median. *)
let rel_iqr xs =
  let q1, m, q3 = quartiles xs in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m
