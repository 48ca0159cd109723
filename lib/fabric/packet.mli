(** Variable-length packets for the AN1-style switch models (paper §1).

    AN1 carries ethernet-like packets (64–1500 bytes) with cut-through
    forwarding and FIFO input buffers; AN2 chops everything into
    53-byte cells. These types let the two organizations be compared
    on identical offered traffic: a packet workload is either switched
    whole (AN1, {!Packet_switch}) or segmented into cells, switched by
    VOQ+PIM, and reassembled (AN2). *)

type t = {
  input : int;
  output : int;
  len : int;  (** length in cell times (1 cell = 48 payload bytes) *)
  arrival : int;  (** slot in which the first byte reached the input *)
}

val make : input:int -> output:int -> len:int -> arrival:int -> t

(** Packet arrival processes, in the same offered-load units as
    {!Traffic} (cell times per slot per input). *)
module Source : sig
  type packet_gen

  val bimodal :
    rng:Netsim.Rng.t -> n:int -> load:float -> short:int -> long:int ->
    long_fraction:float -> packet_gen
  (** Ethernet-like mix: packets are [short] cells long with
      probability [1 - long_fraction], else [long]; destinations
      uniform; starts Bernoulli so the long-run offered load (in cell
      times) equals [load]. *)

  val fixed_length :
    rng:Netsim.Rng.t -> n:int -> load:float -> len:int -> packet_gen

  val arrivals : packet_gen -> slot:int -> input:int -> t list
  (** Packets whose first cell arrives at [input] in [slot] (at most
      one; a new packet cannot start while the previous one is still
      arriving on the same input link). *)
end
