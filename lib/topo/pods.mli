(** Pod metadata for Clos/fat-tree fabrics.

    A pod is the unit of hierarchical repair: a group of switches whose
    internal links can be reconfigured without involving the rest of
    the fabric. Core (spine) switches belong to no pod; every link that
    touches a core switch — or joins two different pods — is {e global}
    and a cut there must escalate to a fabric-wide reconfiguration. *)

type t

type link_scope =
  | Pod of int  (** both switch endpoints (or the one switch endpoint
                    of a host attachment) lie inside this pod *)
  | Global  (** touches a core switch or crosses a pod boundary *)

val make : pod_of:int array -> n_pods:int -> t
(** [pod_of.(s)] is switch [s]'s pod, or [-1] for a core switch.
    Raises [Invalid_argument] if an entry is outside [-1 .. n_pods-1]
    or [n_pods < 0]. The array is copied. *)

val n_pods : t -> int

val pod_of_switch : t -> int -> int option
(** [None] for a core switch. *)

val members : t -> int -> int list
(** Switch ids of one pod, ascending. *)

val core : t -> int list
(** Core switch ids, ascending. *)

val in_pod : t -> pod:int -> int -> bool
(** [in_pod t ~pod s]: membership test, O(1). *)

val scope_of_link : t -> Graph.t -> int -> link_scope
(** Classify a link by id. Host-to-host links (which no builder
    creates) classify as [Global]. *)

val pp : Format.formatter -> t -> unit
