(** Host controllers: packet segmentation and reassembly (paper §1).

    AN2 traffics in 53-byte ATM cells (48 bytes of payload), but hosts
    deal in variable-length packets. The controller disassembles an
    outgoing packet into cells and the receiving controller
    reassembles them. Cells of one circuit arrive in order (a circuit
    follows a single path), so reassembly needs only a per-circuit
    accumulator and an end-of-packet mark. *)

type packet = { packet_id : int; size : int  (** bytes, > 0 *) }

type cell = {
  vc : int;
  packet_id : int;
  seq : int;  (** 0-based position within the packet *)
  eop : bool;  (** last cell of the packet *)
}

val cells_needed : int -> int
(** Cells required for a packet of the given size. *)

val segment : packet -> vc:int -> cell list

module Reassembly : sig
  type t

  val create : unit -> t

  val push : t -> cell -> (packet, string) result option
  (** Feed one arriving cell. [Some (Ok p)] when a packet completes;
      [Some (Error _)] when the stream is inconsistent (lost or
      reordered cell — cannot happen over a healthy circuit);
      [None] while mid-packet. *)

  val partial_circuits : t -> int
  (** Circuits currently holding an incomplete packet. *)
end
