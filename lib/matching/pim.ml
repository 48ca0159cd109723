(* Word-level bitset implementation. The round below is the same
   three-step protocol as Pim.round in the test-only
   test/oracle/matching_reference.ml and consumes the RNG
   stream identically: one draw per granting output (in descending
   output order), one draw per accepting input (in ascending input
   order), each over the candidate set in ascending index order. The
   differential tests in test_matching hold the two bit-identical. *)

type state = {
  n : int;
  grants : int array;  (* per input: mask of outputs granting it this round *)
  mutable un_in : int;  (* unmatched inputs, during a run *)
  mutable un_out : int;  (* unmatched outputs, during a run *)
  scratch : Outcome.t;  (* reused by iterations_to_maximal *)
}

let create n =
  { n; grants = Array.make n 0; un_in = 0; un_out = 0; scratch = Outcome.empty n }

(* One request/grant/accept round over the unmatched-port masks.
   Returns the number of new pairs; updates the masks and [m]. *)
let round st ~rng req (m : Outcome.t) =
  let n = req.Request.n in
  let cols = req.Request.cols in
  let grants = st.grants in
  (* Steps 1+2: each unmatched output grants one random requester
     among the still-unmatched inputs. *)
  for o = n - 1 downto 0 do
    if (st.un_out lsr o) land 1 = 1 then begin
      let reqs = cols.(o) land st.un_in in
      if reqs <> 0 then begin
        let winner = Netsim.Rng.select_bit rng reqs in
        grants.(winner) <- grants.(winner) lor (1 lsl o)
      end
    end
  done;
  (* Step 3: each input accepts one random grant. *)
  let added = ref 0 in
  for i = 0 to n - 1 do
    let gs = grants.(i) in
    if gs <> 0 then begin
      let o = Netsim.Rng.select_bit rng gs in
      m.match_of_input.(i) <- o;
      m.match_of_output.(o) <- i;
      st.un_in <- st.un_in land lnot (1 lsl i);
      st.un_out <- st.un_out land lnot (1 lsl o);
      grants.(i) <- 0;
      incr added
    end
  done;
  !added

let run_into st ~rng req ~iterations (m : Outcome.t) =
  if iterations < 1 then invalid_arg "Pim.run: need at least one iteration";
  let n = req.Request.n in
  if st.n <> n || Array.length m.match_of_input <> n then
    invalid_arg "Pim.run_into: size mismatch";
  Outcome.reset m;
  st.un_in <- Netsim.Bits.full n;
  st.un_out <- Netsim.Bits.full n;
  let used = ref 0 in
  let continue = ref true in
  while !continue && !used < iterations do
    let added = round st ~rng req m in
    incr used;
    if added = 0 then continue := false
  done;
  m.iterations_used <- !used

let run ~rng req ~iterations =
  let n = req.Request.n in
  let st = create n in
  let m = Outcome.empty n in
  run_into st ~rng req ~iterations m;
  m

let iterations_to_maximal ?state ~rng req =
  let n = req.Request.n in
  let st = match state with Some st -> st | None -> create n in
  if st.n <> n then invalid_arg "Pim.iterations_to_maximal: size mismatch";
  let m = st.scratch in
  Outcome.reset m;
  st.un_in <- Netsim.Bits.full n;
  st.un_out <- Netsim.Bits.full n;
  (* Maximal iff no unmatched input requests an unmatched output. *)
  let maximal () =
    let ok = ref true in
    let ui = ref st.un_in in
    while !ok && !ui <> 0 do
      let i = Netsim.Bits.ctz !ui in
      if req.Request.rows.(i) land st.un_out <> 0 then ok := false;
      ui := !ui land (!ui - 1)
    done;
    !ok
  in
  let rounds = ref 0 in
  while not (maximal ()) do
    ignore (round st ~rng req m);
    incr rounds
  done;
  !rounds
