type t = { n : int; rows : int array; cols : int array }

let create n =
  if n < 0 || n > Netsim.Bits.max_size then
    invalid_arg "Request.create: need 0 <= n <= 62";
  { n; rows = Array.make n 0; cols = Array.make n 0 }

let set t i o v =
  if v then begin
    t.rows.(i) <- t.rows.(i) lor (1 lsl o);
    t.cols.(o) <- t.cols.(o) lor (1 lsl i)
  end
  else begin
    t.rows.(i) <- t.rows.(i) land lnot (1 lsl o);
    t.cols.(o) <- t.cols.(o) land lnot (1 lsl i)
  end

let get t i o = (t.rows.(i) lsr o) land 1 = 1

let clear t =
  Array.fill t.rows 0 t.n 0;
  Array.fill t.cols 0 t.n 0

let of_matrix wants =
  let n = Array.length wants in
  Array.iter
    (fun row -> if Array.length row <> n then invalid_arg "Request.of_matrix: not square")
    wants;
  let t = create n in
  for i = 0 to n - 1 do
    for o = 0 to n - 1 do
      if wants.(i).(o) then set t i o true
    done
  done;
  t

(* Refill [t] in place; draws from [rng] in the same (i, o) order as
   [random] so the two are stream-interchangeable. *)
let randomize ~rng ~density t =
  clear t;
  for i = 0 to t.n - 1 do
    for o = 0 to t.n - 1 do
      if Netsim.Rng.bernoulli rng density then set t i o true
    done
  done

let random ~rng ~n ~density =
  let t = create n in
  randomize ~rng ~density t;
  t

let full n =
  let t = create n in
  let m = Netsim.Bits.full n in
  Array.fill t.rows 0 n m;
  Array.fill t.cols 0 n m;
  t

let request_count t =
  let c = ref 0 in
  for i = 0 to t.n - 1 do
    c := !c + Netsim.Bits.popcount t.rows.(i)
  done;
  !c

let copy t = { n = t.n; rows = Array.copy t.rows; cols = Array.copy t.cols }
