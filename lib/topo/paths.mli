(** Unrestricted shortest paths over the working switch subgraph. *)

val distances : Graph.t -> src:int -> int array
(** BFS hop counts; -1 where unreachable. *)

val route :
  ?usable:(int -> bool) -> Graph.t -> src:int -> dst:int -> int list option
(** Shortest switch sequence from [src] to [dst] inclusive, or [None]
    if unreachable. Deterministic (lowest-numbered neighbor first).
    [usable] filters the links the search may cross (default: every
    working link); it must not itself call [route]. The search stops
    as soon as [dst] is discovered and allocates only its result, over
    scratch reused per domain. Raises [Invalid_argument] on bad switch
    ids. *)

val mean_distance : Graph.t -> float
(** Mean over all ordered reachable switch pairs (excluding self
    pairs); 0 if fewer than two switches. *)

val diameter : Graph.t -> int
(** Max finite distance over switch pairs. *)
