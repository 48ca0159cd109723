type action =
  | Fail_link of int
  | Restore_link of int
  | Fail_switch of int
  | Restore_switch of int
  | Set_control_loss of float

let pp_action fmt = function
  | Fail_link l -> Format.fprintf fmt "fail-link %d" l
  | Restore_link l -> Format.fprintf fmt "restore-link %d" l
  | Fail_switch s -> Format.fprintf fmt "fail-switch %d" s
  | Restore_switch s -> Format.fprintf fmt "restore-switch %d" s
  | Set_control_loss p -> Format.fprintf fmt "control-loss %.2f" p

type item =
  | At of Netsim.Time.t * action
  | Flap of {
      link : int;
      start : Netsim.Time.t;
      until : Netsim.Time.t;
      down_for : Netsim.Time.t;
      up_for : Netsim.Time.t;
    }
  | Crash_restart of {
      switch : int;
      at : Netsim.Time.t;
      down_for : Netsim.Time.t;
    }
  | Control_loss_window of {
      from_ : Netsim.Time.t;
      until : Netsim.Time.t;
      loss : float;
    }
  | Random_churn of {
      seed : int;
      start : Netsim.Time.t;
      until : Netsim.Time.t;
      rate : float;
      mean_downtime : Netsim.Time.t;
      links : int list;
    }

type t = item list

let expand_item acc = function
  | At (at, action) -> (at, action) :: acc
  | Flap { link; start; until; down_for; up_for } ->
    if down_for <= 0 || up_for <= 0 then
      invalid_arg "Schedule: flap duty cycles must be positive";
    let rec cycle at acc =
      if at >= until then (until, Restore_link link) :: acc
      else
        let acc = (at, Fail_link link) :: acc in
        let back = at + down_for in
        if back >= until then (until, Restore_link link) :: acc
        else cycle (back + up_for) ((back, Restore_link link) :: acc)
    in
    cycle start acc
  | Crash_restart { switch; at; down_for } ->
    if down_for <= 0 then invalid_arg "Schedule: crash downtime must be positive";
    (at + down_for, Restore_switch switch) :: (at, Fail_switch switch) :: acc
  | Control_loss_window { from_; until; loss } ->
    if until <= from_ then invalid_arg "Schedule: empty control-loss window";
    (until, Set_control_loss 0.0) :: (from_, Set_control_loss loss) :: acc
  | Random_churn { seed; start; until; rate; mean_downtime; links } ->
    if rate <= 0.0 then invalid_arg "Schedule: churn rate must be positive";
    if links = [] then invalid_arg "Schedule: churn needs candidate links";
    let victims = Array.of_list links in
    let rng = Netsim.Rng.create seed in
    let mean_gap = 1e9 /. rate in
    let rec faults at acc =
      let gap =
        max 1 (int_of_float (Netsim.Rng.exponential rng ~mean:mean_gap))
      in
      let at = at + gap in
      if at >= until then acc
      else begin
        let victim = Netsim.Rng.pick_array rng victims in
        let downtime =
          max 1
            (int_of_float
               (Netsim.Rng.exponential rng
                  ~mean:(float_of_int mean_downtime)))
        in
        faults at
          ((at + downtime, Restore_link victim) :: (at, Fail_link victim) :: acc)
      end
    in
    faults start acc

let expand items =
  let timeline = List.fold_left expand_item [] items in
  (* Stable sort on time only: simultaneous actions keep the order the
     items induced (List.rev restores emission order first). *)
  List.stable_sort
    (fun (t1, _) (t2, _) -> compare (t1 : int) t2)
    (List.rev timeline)

type driver = {
  armed : bool array;  (* per timeline entry: not fired, not cancelled *)
  mutable control_loss : float;
  mutable injected : int;
}

let apply graph = function
  | Fail_link l -> Topo.Graph.fail_link graph l
  | Restore_link l -> Topo.Graph.restore_link graph l
  | Fail_switch s -> Topo.Graph.fail_switch graph s
  | Restore_switch s -> Topo.Graph.restore_switch graph s
  | Set_control_loss _ -> ()

let install ~engine ~graph ?(on_action = fun _ _ -> ()) timeline =
  let now = Netsim.Engine.now engine in
  let d =
    {
      armed = Array.make (List.length timeline) true;
      control_loss = 0.0;
      injected = 0;
    }
  in
  List.iteri
    (fun i (at, action) ->
      if at < now then invalid_arg "Schedule.install: action in the past";
      Netsim.Engine.post_at engine ~at (fun () ->
          if d.armed.(i) then begin
            d.armed.(i) <- false;
            apply graph action;
            (match action with
             | Set_control_loss p -> d.control_loss <- p
             | _ -> ());
            d.injected <- d.injected + 1;
            on_action at action
          end))
    timeline;
  d

let cancel d = Array.fill d.armed 0 (Array.length d.armed) false

let control_loss d = d.control_loss
let injected d = d.injected

let remaining d =
  Array.fold_left (fun acc armed -> if armed then acc + 1 else acc) 0 d.armed
