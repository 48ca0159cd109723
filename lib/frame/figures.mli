(** Exact reproductions of the paper's Figures 2 and 3.

    A faithful note: in the full 3-slot schedule of Figure 2, the
    middle slot (1->4, 2->1, 3->2) actually has both input 4 and
    output 3 free, so the Slepian–Duguid "easy case" applies and the
    4->3 cell can be placed directly — the paper's prose overlooks
    this. Figure 3's swap chain only involves the two slots it labels
    p and q, so {!run_figure3} reproduces the chain on exactly those
    two slots, where no direct placement exists. *)

val figure2_initial_schedule : unit -> Schedule.t
(** Figure 2's schedule *before* the 4->3 reservation:
    slot 1 (p): 1->3, 2->1, 3->2;
    slot 2:     1->4, 2->1, 3->2;
    slot 3 (q): 1->2, 3->4, 4->1. *)

val figure2_final_schedule : unit -> Schedule.t
(** Figure 2's printed schedule, which already contains 4->3. *)

val run_figure3 : unit -> Schedule.t * Schedule.add_outcome
(** Add the 4->3 reservation to the two slots of Figure 3 (slot 1 is
    the paper's p, slot 2 its q) with {!Schedule.add_cell}, forcing
    the swap chain. Returns the resulting schedule and the trace. The
    paper draws the chain as 3 figure-steps: the initial placement
    plus one step per displacement *pair*; {!paper_steps} converts. *)

val paper_steps : Schedule.add_outcome -> int
(** Figure-3-style step count: 1 for the initial placement plus one
    per two displacements. *)

val report : Format.formatter -> unit
(** Print the full Figure 2 + Figure 3 reproduction with validity
    checks. *)
