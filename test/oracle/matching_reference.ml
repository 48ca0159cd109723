(* The original list-based matching kernels, retained verbatim as the
   executable specification. The bitset kernels in Pim/Islip/Greedy/
   Hopcroft_karp must produce bit-identical outcomes for the same RNG
   stream; test_matching checks them against this module. Nothing on
   the hot path calls in here. *)

module Pim = struct
  (* One request/grant/accept round. Returns the number of new pairs. *)
  let round ~rng req (m : Matching.Outcome.t) =
    let n = req.Matching.Request.n in
    (* Step 1: requests from unmatched inputs, gathered per output. *)
    let requests = Array.make n [] in
    for i = n - 1 downto 0 do
      if m.match_of_input.(i) < 0 then
        for o = n - 1 downto 0 do
          if Matching.Request.get req i o then requests.(o) <- i :: requests.(o)
        done
    done;
    (* Step 2: each unmatched output grants one random request. *)
    let grants = Array.make n [] in
    for o = n - 1 downto 0 do
      if m.match_of_output.(o) < 0 then
        match requests.(o) with
        | [] -> ()
        | reqs ->
          let winner = Netsim.Rng.pick rng reqs in
          grants.(winner) <- o :: grants.(winner)
    done;
    (* Step 3: each input accepts one random grant. *)
    let added = ref 0 in
    for i = 0 to n - 1 do
      match grants.(i) with
      | [] -> ()
      | gs ->
        let o = Netsim.Rng.pick rng gs in
        Matching.Outcome.add_pair m ~input:i ~output:o;
        incr added
    done;
    !added

  let run ~rng req ~iterations =
    if iterations < 1 then invalid_arg "Reference.Pim.run: need at least one iteration";
    let m = Matching.Outcome.empty req.Matching.Request.n in
    let used = ref 0 in
    let continue = ref true in
    while !continue && !used < iterations do
      let added = round ~rng req m in
      incr used;
      if added = 0 then continue := false
    done;
    m.iterations_used <- !used;
    m

  let iterations_to_maximal ~rng req =
    let m = Matching.Outcome.empty req.Matching.Request.n in
    let rounds = ref 0 in
    while not (Matching.Outcome.is_maximal req m) do
      ignore (round ~rng req m);
      incr rounds
    done;
    !rounds
end

module Islip = struct
  type t = {
    n : int;
    grant_ptr : int array;  (* per output *)
    accept_ptr : int array;  (* per input *)
  }

  let create n = { n; grant_ptr = Array.make n 0; accept_ptr = Array.make n 0 }

  (* First index >= ptr (mod n) for which [mem] holds. *)
  let round_robin_pick n ptr mem =
    let rec scan k = if k = n then None
      else begin
        let idx = (ptr + k) mod n in
        if mem idx then Some idx else scan (k + 1)
      end
    in
    scan 0

  let run t req ~iterations =
    if req.Matching.Request.n <> t.n then invalid_arg "Reference.Islip.run: size mismatch";
    let n = t.n in
    let m = Matching.Outcome.empty n in
    let used = ref 0 in
    let continue = ref true in
    while !continue && !used < iterations do
      let iter_no = !used in
      (* Requests from unmatched inputs to unmatched outputs. *)
      let wants i o =
        m.match_of_input.(i) < 0 && m.match_of_output.(o) < 0 && Matching.Request.get req i o
      in
      (* Grant: each unmatched output picks the first requesting input at
         or after its pointer. *)
      let grant = Array.make n (-1) in
      for o = 0 to n - 1 do
        if m.match_of_output.(o) < 0 then
          match round_robin_pick n t.grant_ptr.(o) (fun i -> wants i o) with
          | Some i -> grant.(o) <- i
          | None -> ()
      done;
      (* Accept: each input picks the first granting output at or after
         its pointer. *)
      let added = ref 0 in
      for i = 0 to n - 1 do
        if m.match_of_input.(i) < 0 then
          match round_robin_pick n t.accept_ptr.(i) (fun o -> grant.(o) = i) with
          | Some o ->
            Matching.Outcome.add_pair m ~input:i ~output:o;
            incr added;
            if iter_no = 0 then begin
              t.grant_ptr.(o) <- (i + 1) mod n;
              t.accept_ptr.(i) <- (o + 1) mod n
            end
          | None -> ()
      done;
      incr used;
      if !added = 0 then continue := false
    done;
    m.iterations_used <- !used;
    m
end

module Greedy = struct
  let run ?rng req =
    let n = req.Matching.Request.n in
    let m = Matching.Outcome.empty n in
    let order = Array.init n (fun i -> i) in
    (match rng with
     | Some rng -> Netsim.Rng.shuffle_in_place rng order
     | None -> ());
    Array.iter
      (fun i ->
        let o = ref 0 and placed = ref false in
        while (not !placed) && !o < n do
          if Matching.Request.get req i !o && m.match_of_output.(!o) < 0 then begin
            Matching.Outcome.add_pair m ~input:i ~output:!o;
            placed := true
          end;
          incr o
        done)
      order;
    m.iterations_used <- 1;
    m
end

module Hopcroft_karp = struct
  let infinity_dist = max_int

  let run req =
    let n = req.Matching.Request.n in
    let adj =
      Array.init n (fun i ->
          let outs = ref [] in
          for o = n - 1 downto 0 do
            if Matching.Request.get req i o then outs := o :: !outs
          done;
          !outs)
    in
    let match_i = Array.make n (-1) and match_o = Array.make n (-1) in
    let dist = Array.make n 0 in
    let phases = ref 0 in
    (* BFS layering over free inputs; true if an augmenting path exists. *)
    let bfs () =
      let queue = Queue.create () in
      for i = 0 to n - 1 do
        if match_i.(i) < 0 then begin
          dist.(i) <- 0;
          Queue.add i queue
        end
        else dist.(i) <- infinity_dist
      done;
      let found = ref false in
      while not (Queue.is_empty queue) do
        let i = Queue.pop queue in
        List.iter
          (fun o ->
            match match_o.(o) with
            | -1 -> found := true
            | i' ->
              if dist.(i') = infinity_dist then begin
                dist.(i') <- dist.(i) + 1;
                Queue.add i' queue
              end)
          adj.(i)
      done;
      !found
    in
    let rec dfs i =
      let rec try_outputs = function
        | [] ->
          dist.(i) <- infinity_dist;
          false
        | o :: rest ->
          let free_or_advance =
            match match_o.(o) with
            | -1 -> true
            | i' -> dist.(i') = dist.(i) + 1 && dfs i'
          in
          if free_or_advance then begin
            match_i.(i) <- o;
            match_o.(o) <- i;
            true
          end
          else try_outputs rest
      in
      try_outputs adj.(i)
    in
    while bfs () do
      incr phases;
      for i = 0 to n - 1 do
        if match_i.(i) < 0 then ignore (dfs i)
      done
    done;
    {
      Matching.Outcome.match_of_input = match_i;
      match_of_output = match_o;
      iterations_used = !phases;
    }
end
