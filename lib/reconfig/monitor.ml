type params = {
  interval : Netsim.Time.t;
  miss_threshold : int;
  skeptic : Skeptic.params;
}

let default_params =
  {
    interval = Netsim.Time.ms 50;
    miss_threshold = 2;
    skeptic = Skeptic.default_params;
  }

type t = {
  engine : Netsim.Engine.t;
  params : params;
  link_up : unit -> bool;
  on_transition : up:bool -> Netsim.Time.t -> unit;
  skeptic : Skeptic.t;
  mutable declared_up : bool;
  mutable misses : int;
  mutable probation_start : Netsim.Time.t option;
  mutable probation_wait : Netsim.Time.t;
  mutable transitions : int;
  mutable stamp : int;
      (* a tick runs only if armed under the current stamp; [stop]
         bumps it, retiring the pending tick *)
  mutable running : bool;
}

let create ~engine ~params ~link_up ~on_transition =
  {
    engine;
    params;
    link_up;
    on_transition;
    skeptic = Skeptic.create ~params:params.skeptic ();
    declared_up = true;
    misses = 0;
    probation_start = None;
    probation_wait = 0;
    transitions = 0;
    stamp = 0;
    running = false;
  }

let declare t up =
  t.declared_up <- up;
  t.transitions <- t.transitions + 1;
  t.on_transition ~up (Netsim.Engine.now t.engine)

(* (Re)open probation. The wait must be taken from the skeptic *now*,
   not reused from the previous opening: a relapse in between has
   bumped the suspicion level, so the link owes a doubled wait. *)
let open_probation t ~now =
  t.probation_start <- Some now;
  t.probation_wait <- Skeptic.recovery_wait t.skeptic ~now

let on_ping t =
  let now = Netsim.Engine.now t.engine in
  if t.link_up () then begin
    t.misses <- 0;
    if not t.declared_up then begin
      match t.probation_start with
      | None ->
        (* First clean ping since the outage (or since a relapse). *)
        open_probation t ~now
      | Some since ->
        if now - since >= t.probation_wait then begin
          t.probation_start <- None;
          declare t true
        end
    end
  end
  else begin
    t.misses <- t.misses + 1;
    if t.declared_up then begin
      if t.misses >= t.params.miss_threshold then begin
        Skeptic.note_failure t.skeptic ~now;
        declare t false
      end
    end
    else if t.probation_start <> None then begin
      (* Relapse during probation: the skeptic grows warier, and the
         next probation (opened by [open_probation]) serves the longer
         wait that the bumped level now demands. *)
      t.probation_start <- None;
      Skeptic.note_failure t.skeptic ~now
    end
  end

(* [on_ping] may stop (and restart) the monitor through
   [on_transition]; the tick re-arms only if it is still current. *)
let rec tick t stamp =
  if stamp = t.stamp then begin
    on_ping t;
    if stamp = t.stamp then arm t
  end

and arm t =
  let stamp = t.stamp in
  Netsim.Engine.post t.engine ~delay:t.params.interval (fun () -> tick t stamp)

let start t =
  if not t.running then begin
    t.running <- true;
    arm t
  end

let stop t =
  t.running <- false;
  t.stamp <- t.stamp + 1

let declared_up t = t.declared_up
let transitions t = t.transitions
let skeptic_level t = Skeptic.level t.skeptic ~now:(Netsim.Engine.now t.engine)
let probation_wait t = t.probation_wait
