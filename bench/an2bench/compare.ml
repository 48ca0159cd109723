(* [an2bench compare PARENT.json CHANGE.json]: one row per workload and
   metric of two envelopes. Host metrics get a verdict: a gain needs the
   change to win at least 9 in 10 of the rep pairs (rep i against rep i)
   and the medians to differ by more than the parent's interquartile
   range, so one lucky rep or a shifted median alone is not a gain; a
   side whose spread exceeds the bound leaves the metric unresolved
   unless every change rep beats every parent rep; otherwise a median
   worse by more than the bound is a regression. Simulated metrics and
   the digest must be identical on the same seed. *)

module J = Obs.Json

let load file =
  match J.parse (In_channel.with_open_bin file In_channel.input_all) with
  | j -> j
  | exception (Sys_error e | J.Bad e) ->
    prerr_endline ("an2bench compare: " ^ file ^ ": " ^ e);
    exit 2

let host_verdict ~higher ~bound ps cs =
  let better a b = if higher then a > b else a < b in
  let q1p, mp, q3p = Stats.quartiles ps and mc = Stats.median cs in
  let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
  let pairs = zip ps cs in
  let wins = List.length (List.filter (fun (p, c) -> better c p) pairs) in
  let gain =
    pairs <> [] && float_of_int wins >= 0.9 *. float_of_int (List.length pairs) && Float.abs (mc -. mp) > q3p -. q1p
  in
  let dominates = List.for_all (fun c -> List.for_all (better c) ps) cs in
  let worse_by = if mp = 0.0 then 0.0 else (if higher then mp -. mc else mc -. mp) /. Float.abs mp in
  if Stats.rel_iqr ps > bound || Stats.rel_iqr cs > bound then
    if gain && dominates then "improved" else "unresolved"
  else if gain then "improved"
  else if worse_by > bound then "regressed"
  else "within bound"

let run parent change =
  let p = load parent and c = load change in
  let field k j = J.member k j in
  let same_inputs = field "seed" p = field "seed" c && field "quick" p = field "quick" c in
  if not same_inputs then
    print_endline "note: the envelopes differ in --seed or --quick; simulated metrics are not compared";
  Printf.printf "%-20s %-18s %-9s %36s   %36s   %s\n" "workload" "metric" "unit" "parent median [q1, q3]"
    "change median [q1, q3]" "verdict";
  let ok = ref true in
  let row w name unit pv cv verdict =
    if verdict = "regressed" || verdict = "changed" || verdict = "missing" then ok := false;
    Printf.printf "%-20s %-18s %-9s %36s   %36s   %s\n" w name unit pv cv verdict
  in
  let spread xs =
    let q1, m, q3 = Stats.quartiles xs in
    Printf.sprintf "%.6g [%.6g, %.6g]" m q1 q3
  in
  List.iter
    (fun (w, pw) ->
      match J.member_opt w (field "workloads" c) with
      | None -> row w "-" "-" "present" "absent" "missing"
      | Some cw ->
        List.iter
          (fun (name, pm) ->
            let unit = J.str (field "unit" pm) in
            match J.member_opt name (field "metrics" cw) with
            | None -> row w name unit "present" "absent" "missing"
            | Some cm ->
              if J.str (field "kind" pm) = "host" then begin
                let samples m = List.map J.num (J.arr (field "samples" m)) in
                let ps = samples pm and cs = samples cm in
                row w name unit (spread ps) (spread cs)
                  (host_verdict ~higher:(J.str (field "better" pm) = "higher") ~bound:(J.num (field "bound" pm)) ps cs)
              end
              else if same_inputs then begin
                let pv = J.num (field "value" pm) and cv = J.num (field "value" cm) in
                row w name unit (Printf.sprintf "%.6g" pv) (Printf.sprintf "%.6g" cv)
                  (if pv = cv then "same" else "changed")
              end)
          (J.obj (field "metrics" pw));
        if same_inputs then begin
          let d j = J.str (field "sim_digest" j) in
          row w "sim_digest" "-" (d pw) (d cw) (if d pw = d cw then "same" else "changed")
        end)
    (J.obj (field "workloads" p));
  !ok
