(** Unrestricted shortest paths over the working switch subgraph, and
    the one owner of a route's links ({!route_links}). *)

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

val route_links :
  ?usable:(int -> bool) -> Graph.t -> src:int -> dst:int -> tail:int list ->
  (int list * int list) option
(** {!route}'s search, answering with the switch path and the links it
    crossed, in path order, followed by [tail] (a last hop the caller
    adds without a copy). Each link is the one the search discovered
    the next switch over: working, passing [usable], and without
    [usable] the lowest-id link between the two switches. Allocates
    only its result. *)

val links_of_switches :
  Graph.t -> int list -> tail:int list -> (int list, int * int) result
(** The lowest-id working link between each pair of consecutive
    switches of a hand-built path, followed by [tail], or
    [Error (a, b)] for the first pair with none. *)

val mean_distance : Graph.t -> float
(** Mean over all ordered reachable switch pairs (excluding self
    pairs); 0 if fewer than two switches. *)

val diameter : Graph.t -> int
(** Max finite distance over switch pairs. *)
