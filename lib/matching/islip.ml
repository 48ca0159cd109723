(* Bitset implementation; outcome-identical to Islip in the test-only
   test/oracle/matching_reference.ml (the list/closure form) for any
   request matrix and pointer history. The round-robin scan becomes
   Bits.rotate_first over a requester mask. *)

type t = {
  n : int;
  grant_ptr : int array;  (* per output *)
  accept_ptr : int array;  (* per input *)
  grants : int array;  (* scratch: per input, mask of granting outputs *)
}

let create n =
  {
    n;
    grant_ptr = Array.make n 0;
    accept_ptr = Array.make n 0;
    grants = Array.make n 0;
  }

let run_into t req ~iterations (m : Outcome.t) =
  if req.Request.n <> t.n then invalid_arg "Islip.run: size mismatch";
  if Array.length m.match_of_input <> t.n then invalid_arg "Islip.run_into: size mismatch";
  let n = t.n in
  Outcome.reset m;
  let un_in = ref (Netsim.Bits.full n) and un_out = ref (Netsim.Bits.full n) in
  let used = ref 0 in
  let continue = ref true in
  while !continue && !used < iterations do
    let iter_no = !used in
    (* Grant: each unmatched output picks the first requesting
       unmatched input at or after its pointer. *)
    for o = 0 to n - 1 do
      if (!un_out lsr o) land 1 = 1 then begin
        let reqs = req.Request.cols.(o) land !un_in in
        let i = Netsim.Bits.rotate_first ~ptr:t.grant_ptr.(o) reqs in
        if i >= 0 then t.grants.(i) <- t.grants.(i) lor (1 lsl o)
      end
    done;
    (* Accept: each granted input picks the first granting output at
       or after its pointer. Pointers advance only for first-iteration
       pairs (the standard iSLIP starvation-freedom rule). *)
    let added = ref 0 in
    for i = 0 to n - 1 do
      let gs = t.grants.(i) in
      if gs <> 0 then begin
        t.grants.(i) <- 0;
        let o = Netsim.Bits.rotate_first ~ptr:t.accept_ptr.(i) gs in
        m.match_of_input.(i) <- o;
        m.match_of_output.(o) <- i;
        un_in := !un_in land lnot (1 lsl i);
        un_out := !un_out land lnot (1 lsl o);
        incr added;
        if iter_no = 0 then begin
          t.grant_ptr.(o) <- (i + 1) mod n;
          t.accept_ptr.(i) <- (o + 1) mod n
        end
      end
    done;
    incr used;
    if !added = 0 then continue := false
  done;
  m.iterations_used <- !used

let run t req ~iterations =
  let m = Outcome.empty t.n in
  run_into t req ~iterations m;
  m
