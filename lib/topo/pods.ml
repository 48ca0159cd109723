type t = {
  pod_of : int array;  (* per switch; -1 = core *)
  n_pods : int;
}

type link_scope =
  | Pod of int
  | Global

let make ~pod_of ~n_pods =
  if n_pods < 0 then invalid_arg "Pods.make: negative n_pods";
  Array.iter
    (fun p ->
      if p < -1 || p >= n_pods then
        invalid_arg "Pods.make: pod id out of range")
    pod_of;
  { pod_of = Array.copy pod_of; n_pods }

let n_pods t = t.n_pods

let check t s =
  if s < 0 || s >= Array.length t.pod_of then
    invalid_arg "Pods: bad switch id"

let pod_of_switch t s =
  check t s;
  match t.pod_of.(s) with
  | -1 -> None
  | p -> Some p

let members t p =
  if p < 0 || p >= t.n_pods then invalid_arg "Pods.members: bad pod";
  let acc = ref [] in
  for s = Array.length t.pod_of - 1 downto 0 do
    if t.pod_of.(s) = p then acc := s :: !acc
  done;
  !acc

let core t =
  let acc = ref [] in
  for s = Array.length t.pod_of - 1 downto 0 do
    if t.pod_of.(s) = -1 then acc := s :: !acc
  done;
  !acc

let in_pod t ~pod s =
  check t s;
  t.pod_of.(s) = pod

let scope_of_link t g id =
  let l = Graph.link g id in
  let pod_of_node = function
    | Graph.Switch s ->
      check t s;
      Some t.pod_of.(s)
    | Graph.Host _ -> None
  in
  match (pod_of_node l.Graph.a.Graph.node, pod_of_node l.Graph.b.Graph.node) with
  | Some pa, Some pb when pa = pb && pa >= 0 -> Pod pa
  | Some p, None | None, Some p when p >= 0 -> Pod p
  | _ -> Global

let pp fmt t =
  Format.fprintf fmt "@[<v>%d pods over %d switches@," t.n_pods
    (Array.length t.pod_of);
  for p = 0 to t.n_pods - 1 do
    Format.fprintf fmt "  pod %d: %a@," p
      (Format.pp_print_list
         ~pp_sep:(fun f () -> Format.pp_print_string f " ")
         Format.pp_print_int)
      (members t p)
  done;
  Format.fprintf fmt "  core: %a@]"
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.pp_print_string f " ")
       Format.pp_print_int)
    (core t)
