(* Bitset implementation; outcome-identical to Greedy in the test-only
   test/oracle/matching_reference.ml and
   stream-compatible with it (the only draw is the order shuffle).
   "First requested free output" is one AND and a count-trailing-zeros
   per input. *)

type state = { n : int; order : int array }

let create n = { n; order = Array.make n 0 }

let run_into st ?rng req (m : Outcome.t) =
  let n = req.Request.n in
  if st.n <> n || Array.length m.match_of_input <> n then
    invalid_arg "Greedy.run_into: size mismatch";
  Outcome.reset m;
  let order = st.order in
  for i = 0 to n - 1 do
    order.(i) <- i
  done;
  (match rng with
   | Some rng -> Netsim.Rng.shuffle_in_place rng order
   | None -> ());
  let free_out = ref (Netsim.Bits.full n) in
  for k = 0 to n - 1 do
    let i = order.(k) in
    let cand = req.Request.rows.(i) land !free_out in
    if cand <> 0 then begin
      let o = Netsim.Bits.ctz cand in
      m.match_of_input.(i) <- o;
      m.match_of_output.(o) <- i;
      free_out := !free_out land lnot (1 lsl o)
    end
  done;
  m.iterations_used <- 1

let run ?rng req =
  let n = req.Request.n in
  let st = create n in
  let m = Outcome.empty n in
  run_into st ?rng req m;
  m
