(** Word-level bitset kernels for the matching and fabric hot paths.

    A "mask" is a non-negative [int] whose low {!max_size} bits encode
    a subset of switch ports. All operations are branch-light,
    allocation-free and O(1) (or O(set bits) where noted), which is
    what lets a scheduling decision for a 16x16 switch run in a few
    dozen machine instructions instead of an N^2 scan. *)

val max_size : int
(** Largest supported set size (62: OCaml ints carry 63 bits and we
    keep masks non-negative). *)

val full : int -> int
(** [full n] is the mask with bits [0..n-1] set. Raises
    [Invalid_argument] unless [0 <= n <= max_size]. *)

val popcount : int -> int
(** Number of set bits. *)

val ctz : int -> int
(** Index of the lowest set bit. Raises [Invalid_argument] on [0]. *)

val select : int -> int -> int
(** [select k m] is the index of the [k]-th set bit of [m], counting
    from the least significant bit, 0-based — the kernel behind
    "pick a uniformly random requester". Raises [Invalid_argument]
    when [m] has [k] or fewer set bits (in particular on an empty
    mask). Constant time (byte-prefix rank, no data-dependent
    branches). *)

val byte_prefix : int -> int
(** Byte-wise popcount prefix sums of a mask: byte [j] of the result
    holds the number of set bits in bytes [0..j], so the top byte is
    the total popcount. Fuel for {!select_at} when the same mask needs
    both a popcount and a rank query from one SWAR pass. *)

val select_at : int -> int -> int -> int
(** [select_at ps m k] is [select k m] given [ps = byte_prefix m],
    skipping the range check: the caller must guarantee
    [0 <= k < popcount m]. *)

val select8_tab : string
(** [select8_tab.[b * 8 + k]] is the index of the [k]-th set bit of
    the byte [b] — the last step of a rank query, exposed so
    {!Rng.select_bit} can inline the whole select chain. *)

val rotate_first : ptr:int -> int -> int
(** [rotate_first ~ptr m] is the index of the first set bit at or
    after [ptr], wrapping around to bit 0 — the iSLIP round-robin
    pointer scan. Returns [-1] on an empty mask. *)
