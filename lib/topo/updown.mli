(** Up*/down* routing (AN1's deadlock-avoidance scheme, paper §5).

    Every link is oriented using the reconfiguration spanning tree:
    "up" points toward the root; between switches at equal tree depth,
    up points toward the higher-numbered switch (the paper's tie
    rule). Legal routes ascend zero or more up links and then descend
    zero or more down links — no up traversal may follow a down
    traversal. This forbids any cycle of buffer-wait dependencies. *)

type t

val orient : Graph.t -> Spanning.t -> t
(** Orient every working switch-to-switch link. *)

val goes_up : t -> from:int -> to_:int -> bool
(** Whether traversing from switch [from] to adjacent switch [to_] is
    an upward traversal. Raises [Invalid_argument] if the switches are
    not adjacent over a working link. *)

val legal_path : t -> int list -> bool
(** Whether a switch sequence is a legal up*/down* path (adjacent
    consecutive switches, no up after down). *)

val distances : Graph.t -> t -> src:int -> int array
(** Shortest legal-path hop counts from [src]; -1 if unreachable. *)

val route : Graph.t -> t -> src:int -> dst:int -> int list option
(** A shortest legal path, as a switch sequence. *)

val route_links :
  Graph.t -> t -> src:int -> dst:int -> tail:int list -> (int list * int list) option
(** {!route}'s path with the switch-to-switch links its search crossed,
    followed by [tail], as {!Paths.route_links} answers. *)

val mean_stretch : Graph.t -> t -> float
(** Mean over ordered reachable pairs of
    (up*/down* distance) / (unrestricted distance). 1.0 means the
    restriction costs nothing. *)

val dependency_acyclic : Graph.t -> restricted:t option -> bool
(** Whether the directed-link wait-for dependency graph is acyclic.
    With [restricted = Some o] only up*/down*-legal link-to-link
    transitions induce dependencies (always acyclic — the paper's
    claim); with [None], all transitions do (cyclic on any topology
    containing a cycle). *)
