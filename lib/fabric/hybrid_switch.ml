(* The slot kernel. A port is free, reserved for the slot but idle
   (the schedule gave it a connection with no ready flow), or taken by
   a guaranteed cell; best effort may use the first two. *)
let free = 0
let idle = 1
let taken = 2

type scratch = {
  ports : int;
  in_state : int array;
  out_state : int array;
  req : Matching.Request.t;
  pim : Matching.Pim.state;
  outcome : Matching.Outcome.t;
  elig : int array;  (* eligible best-effort codes, in [be_flows] order *)
  elig_pair : int array;  (* their port pair, input * ports + output *)
}

type flows = {
  ready : int -> bool;
  be_pair : int -> int;
  transmit : int -> unit;
}

(* The matching state is only touched when best-effort flows exist;
   without them, switches wider than a request bitset still run. *)
let scratch ~ports ~max_be =
  let n = if max_be > 0 then ports else 0 in
  {
    ports;
    in_state = Array.make ports free;
    out_state = Array.make ports free;
    req = Matching.Request.create n;
    pim = Matching.Pim.create n;
    outcome = Matching.Outcome.empty n;
    elig = Array.make max_be 0;
    elig_pair = Array.make max_be 0;
  }

let reserved_idle sc ~input ~output =
  sc.in_state.(input) = idle || sc.out_state.(output) = idle

let run_slot sc f ~schedule ~slot ~gflows ~grr ~be_flows ~rng =
  let ports = sc.ports in
  let in_state = sc.in_state and out_state = sc.out_state in
  Array.fill in_state 0 ports free;
  Array.fill out_state 0 ports free;
  (* Guaranteed connections scheduled in this slot, round-robin among
     the flows sharing an (input, output) pair. *)
  if Array.length gflows > 0 then begin
    let sidx = slot mod Frame.Schedule.frame schedule in
    for i = 0 to ports - 1 do
      let o = Frame.Schedule.output_at schedule ~slot:sidx ~input:i in
      if o >= 0 then begin
        let pair = (i * ports) + o in
        let codes = gflows.(pair) in
        let nf = Array.length codes in
        let k = ref 0 in
        while !k < nf && not (f.ready codes.((grr.(pair) + !k) mod nf)) do
          incr k
        done;
        if !k < nf then begin
          let cd = codes.((grr.(pair) + !k) mod nf) in
          grr.(pair) <- (grr.(pair) + !k + 1) mod nf;
          in_state.(i) <- taken;
          out_state.(o) <- taken;
          f.transmit cd
        end
        else begin
          (* An unused allocated slot: free for best effort. *)
          in_state.(i) <- idle;
          out_state.(o) <- idle
        end
      end
    done
  end;
  (* Best effort fills the leftover ports by parallel iterative
     matching: eligible flows on ports no guaranteed cell took raise
     port-level requests; PIM picks the transfers; the (slot mod
     count)-th eligible flow of a matched pair transmits. *)
  let n_el = ref 0 in
  for b = 0 to Array.length be_flows - 1 do
    let cd = be_flows.(b) in
    let pair = f.be_pair cd in
    if pair >= 0 then begin
      let i = pair / ports and o = pair mod ports in
      if in_state.(i) <> taken && out_state.(o) <> taken then begin
        Matching.Request.set sc.req i o true;
        sc.elig.(!n_el) <- cd;
        sc.elig_pair.(!n_el) <- pair;
        incr n_el
      end
    end
  done;
  (* An empty request draws nothing from the stream: skipping the
     matching then leaves the draws unchanged. *)
  if !n_el > 0 then begin
    let n_el = !n_el in
    Matching.Pim.run_into sc.pim ~rng sc.req ~iterations:3 sc.outcome;
    let m = sc.outcome.Matching.Outcome.match_of_input in
    for i = 0 to ports - 1 do
      let o = m.(i) in
      if o >= 0 then begin
        let pair = (i * ports) + o in
        let count = ref 0 in
        for e = 0 to n_el - 1 do
          if sc.elig_pair.(e) = pair then incr count
        done;
        let nth = ref (slot mod !count) and e = ref 0 in
        while sc.elig_pair.(!e) <> pair || !nth > 0 do
          if sc.elig_pair.(!e) = pair then decr nth;
          incr e
        done;
        f.transmit sc.elig.(!e)
      end
    done;
    Matching.Request.clear sc.req
  end

(* The switch model: flow code p = i * n + o is pair p's guaranteed
   queue, n * n + p its best-effort queue. *)
type t = {
  n : int;
  schedule : Frame.Schedule.t;
  rng : Netsim.Rng.t;
  queues : Cell.t Cellq.t array;
  gflows : int array array;
  grr : int array;
  be_flows : int array;
  sc : scratch;
  mutable guaranteed_delivered : int;
  mutable gbacklog : int;
  mutable be_backlog : int;
  mutable be_in_reserved : int;
}

let create ~rng ~schedule () =
  let n = Frame.Schedule.n schedule in
  let pairs = n * n in
  let dummy = Cell.make ~input:0 ~output:0 ~arrival:0 in
  {
    n;
    schedule;
    rng;
    queues = Array.init (2 * pairs) (fun _ -> Cellq.create ~dummy);
    gflows = Array.init pairs (fun p -> [| p |]);
    grr = Array.make pairs 0;
    be_flows = Array.init pairs (fun p -> pairs + p);
    sc = scratch ~ports:n ~max_be:pairs;
    guaranteed_delivered = 0;
    gbacklog = 0;
    be_backlog = 0;
    be_in_reserved = 0;
  }

let inject_guaranteed t ~input ~output ~slot =
  Cellq.push t.queues.((input * t.n) + output) (Cell.make ~input ~output ~arrival:slot);
  t.gbacklog <- t.gbacklog + 1

let guaranteed_delivered t = t.guaranteed_delivered
let guaranteed_backlog t = t.gbacklog
let be_transmissions_in_reserved_slots t = t.be_in_reserved

let model t =
  let pairs = t.n * t.n in
  let departures = ref [] in
  let flows =
    {
      ready = (fun cd -> not (Cellq.is_empty t.queues.(cd)));
      be_pair = (fun cd -> if Cellq.is_empty t.queues.(cd) then -1 else cd - pairs);
      transmit =
        (fun cd ->
          let cell = Cellq.pop t.queues.(cd) in
          if cd < pairs then begin
            t.gbacklog <- t.gbacklog - 1;
            t.guaranteed_delivered <- t.guaranteed_delivered + 1
          end
          else begin
            t.be_backlog <- t.be_backlog - 1;
            if reserved_idle t.sc ~input:cell.Cell.input ~output:cell.Cell.output
            then t.be_in_reserved <- t.be_in_reserved + 1;
            departures := cell :: !departures
          end);
    }
  in
  let step ~slot =
    departures := [];
    run_slot t.sc flows ~schedule:t.schedule ~slot ~gflows:t.gflows ~grr:t.grr
      ~be_flows:t.be_flows ~rng:t.rng;
    !departures
  in
  let inject (cell : Cell.t) =
    Cellq.push t.queues.(pairs + (cell.input * t.n) + cell.output) cell;
    t.be_backlog <- t.be_backlog + 1
  in
  {
    Model.n = t.n;
    inject;
    step;
    step_count = (fun ~slot -> List.length (step ~slot));
    occupancy = (fun () -> t.be_backlog);
  }
