(* The simulator's one priority queue: a monomorphic 4-ary min-heap
   over (time, seq) keys carrying one integer payload (the engine's
   pool slot), stored as parallel int arrays. Cluster's barrier
   actions and Topo.Partition's searches reuse it with their own
   non-negative payloads.

   Compared to a generic heap of entry records (the seed engine's
   queue, kept with the tests) this trades polymorphism for the
   hot-path properties the engine needs: keys and payloads live in
   unboxed int arrays (no entry records), [pop] returns a bare int (no
   option, no tuple), and [pop_if_at_most] folds the horizon test of
   [Engine.run_until] into the pop itself so the root is examined only
   once. A 4-ary layout halves the tree depth of a binary heap and
   keeps each sift-down's child scan inside one cache line of keys.

   Ties on [time] break by an internal insertion sequence number, so
   pops are FIFO among simultaneous events — the determinism contract
   the engine exposes. *)

type t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable size : int;
  mutable next_seq : int;
  mutable popped_time : int;
}

let create () =
  {
    times = [||];
    seqs = [||];
    slots = [||];
    size = 0;
    next_seq = 0;
    popped_time = 0;
  }

let length t = t.size

let is_empty t = t.size = 0

let min_time t = if t.size = 0 then max_int else t.times.(0)

let popped_time t = t.popped_time

let grow t =
  let cap = Array.length t.times in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let ntimes = Array.make ncap 0
  and nseqs = Array.make ncap 0
  and nslots = Array.make ncap 0 in
  Array.blit t.times 0 ntimes 0 t.size;
  Array.blit t.seqs 0 nseqs 0 t.size;
  Array.blit t.slots 0 nslots 0 t.size;
  t.times <- ntimes;
  t.seqs <- nseqs;
  t.slots <- nslots

(* [lt] on (time, seq) keys by index. *)
let[@inline] lt t i j =
  t.times.(i) < t.times.(j)
  || (t.times.(i) = t.times.(j) && t.seqs.(i) < t.seqs.(j))

let[@inline] swap t i j =
  let tm = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- tm;
  let sq = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- sq;
  let sl = t.slots.(i) in
  t.slots.(i) <- t.slots.(j);
  t.slots.(j) <- sl

let add t ~time ~slot =
  if t.size = Array.length t.times then grow t;
  let i = ref t.size in
  t.times.(!i) <- time;
  t.seqs.(!i) <- t.next_seq;
  t.slots.(!i) <- slot;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  (* Sift up. *)
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 4 in
    if lt t !i parent then begin
      swap t !i parent;
      i := parent
    end
    else continue := false
  done

(* Remove the root; the caller has already read its key/payload. *)
let remove_root t =
  t.size <- t.size - 1;
  if t.size > 0 then begin
    let last = t.size in
    t.times.(0) <- t.times.(last);
    t.seqs.(0) <- t.seqs.(last);
    t.slots.(0) <- t.slots.(last);
    (* Sift down. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let first = (4 * !i) + 1 in
      if first >= t.size then continue := false
      else begin
        let best = ref first in
        let stop = min (first + 4) t.size in
        for c = first + 1 to stop - 1 do
          if lt t c !best then best := c
        done;
        if lt t !best !i then begin
          swap t !i !best;
          i := !best
        end
        else continue := false
      end
    done
  end

let pop t =
  if t.size = 0 then -1
  else begin
    t.popped_time <- t.times.(0);
    let slot = t.slots.(0) in
    remove_root t;
    slot
  end

let pop_if_at_most t ~limit =
  if t.size = 0 || t.times.(0) > limit then -1
  else begin
    t.popped_time <- t.times.(0);
    let slot = t.slots.(0) in
    remove_root t;
    slot
  end

let next_seq t = t.next_seq
let set_next_seq t v = t.next_seq <- v

let clear t =
  t.times <- [||];
  t.seqs <- [||];
  t.slots <- [||];
  t.size <- 0;
  t.next_seq <- 0;
  t.popped_time <- 0
