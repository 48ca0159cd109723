type timing = {
  wire : Netsim.Time.t;
  logic : Netsim.Time.t;
}

let default_timing = { wire = 5; logic = 40 }

type outcome = {
  matching : Outcome.t;
  elapsed : Netsim.Time.t;
}

let iteration_time t = (3 * t.wire) + (2 * t.logic)

let fits_slot t ~iterations ~slot = iterations * iteration_time t <= slot

(* One iteration, as messages between line cards. Inputs and outputs
   are separate processes; the engine delivers each signal after the
   wire delay, and each process waits [logic] after its last expected
   signal before deciding. Iterations are synchronized by the slot
   clock (hardware would use the cell clock), so a round starts when
   the previous one's accepts have landed. *)
let run ~rng req ~iterations =
  let timing = default_timing in
  if iterations < 1 then invalid_arg "Pim_distributed.run: iterations >= 1";
  let n = req.Request.n in
  let engine = Netsim.Engine.create () in
  let m = Outcome.empty n in
  (* Mailboxes for the current round. *)
  let requests = Array.make n [] in
  let grants = Array.make n [] in
  let accepts = Array.make n [] in
  let rec round k =
    if k = iterations then ()
    else begin
      Array.fill requests 0 n [];
      Array.fill grants 0 n [];
      Array.fill accepts 0 n [];
      (* Step 1: every unmatched input raises its request wires. *)
      for i = 0 to n - 1 do
        if m.match_of_input.(i) < 0 then
          for o = 0 to n - 1 do
            if Request.get req i o then
              Netsim.Engine.post engine ~delay:timing.wire (fun () ->
                  requests.(o) <- i :: requests.(o))
          done
      done;
      (* Step 2: after the wires settle, each unmatched output arbitrates. *)
      Netsim.Engine.post engine ~delay:(timing.wire + timing.logic)
        (fun () ->
          for o = 0 to n - 1 do
            if m.match_of_output.(o) < 0 then
              match requests.(o) with
              | [] -> ()
              | reqs ->
                let winner = Netsim.Rng.pick rng (List.rev reqs) in
                Netsim.Engine.post engine ~delay:timing.wire
                  (fun () -> grants.(winner) <- o :: grants.(winner))
          done);
      (* Step 3: after the grant wires settle, each input accepts one;
         the round boundary is scheduled afterwards so it dispatches
         behind the accept arrivals it shares a timestamp with. *)
      Netsim.Engine.post engine
        ~delay:((2 * timing.wire) + (2 * timing.logic))
        (fun () ->
          for i = 0 to n - 1 do
            match grants.(i) with
            | [] -> ()
            | gs ->
              let o = Netsim.Rng.pick rng (List.rev gs) in
              Netsim.Engine.post engine ~delay:timing.wire (fun () ->
                  accepts.(o) <- i :: accepts.(o))
          done;
          (* Round boundary: the accepts have landed at the outputs. *)
          Netsim.Engine.post engine ~delay:timing.wire (fun () ->
              let added = ref 0 in
              for o = 0 to n - 1 do
                match accepts.(o) with
                | [ i ] ->
                  Outcome.add_pair m ~input:i ~output:o;
                  incr added
                | [] -> ()
                | _ ->
                  (* An input accepts exactly one grant, so an
                     output can see at most one accept. *)
                  assert false
              done;
              if !added > 0 then round (k + 1)))
    end
  in
  round 0;
  Netsim.Engine.run engine;
  { matching = m; elapsed = Netsim.Engine.now engine }
