(* The simulator's one priority queue: a monomorphic 4-ary min-heap
   over (time, seq) keys carrying one integer payload, stored as
   parallel int arrays. The engine keeps in it the events due a wheel
   span or more ahead of its clock (the near future sits in the
   engine's bucket wheel); Cluster's barrier actions and
   Topo.Partition's searches use it with their own non-negative
   payloads.

   Compared to a generic heap of entry records (the seed engine's
   queue, kept with the tests) this trades polymorphism for the
   hot-path properties the engine needs: keys and payloads live in
   unboxed int arrays (no entry records), [pop] returns a bare int (no
   option, no tuple), and [pop_if_at_most] folds the horizon test of
   [Engine.run_until] into the pop itself so the root is examined only
   once. A 4-ary layout halves the tree depth of a binary heap and
   keeps each sift-down's child scan inside one cache line of keys.
   Both sifts move a hole rather than swapping, so an entry is written
   once per operation, not once per level.

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

let add t ~time ~slot =
  if t.size = Array.length t.times then grow t;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* Sift up with a hole. The new entry carries the largest seq, so it
     rises only past strictly later times. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) lsr 2 in
    let pt = times.(parent) in
    if time < pt then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(parent);
      slots.(!i) <- slots.(parent);
      i := parent
    end
    else continue := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

(* Remove the root; the caller has already read its key/payload. The
   last entry sifts down from the root with a hole: each level moves
   the least child up one slot and writes the entry once at the end. *)
let remove_root t =
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let times = t.times and seqs = t.seqs and slots = t.slots in
    let time = times.(n) and seq = seqs.(n) and slot = slots.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let first = (4 * !i) + 1 in
      if first >= n then continue := false
      else begin
        let best = ref first in
        let bt = ref times.(first) and bs = ref seqs.(first) in
        for c = first + 1 to min (first + 3) (n - 1) do
          let ct = times.(c) in
          if ct < !bt || (ct = !bt && seqs.(c) < !bs) then begin
            best := c;
            bt := ct;
            bs := seqs.(c)
          end
        done;
        if !bt < time || (!bt = time && !bs < seq) then begin
          times.(!i) <- !bt;
          seqs.(!i) <- !bs;
          slots.(!i) <- slots.(!best);
          i := !best
        end
        else continue := false
      end
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    slots.(!i) <- slot
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

let clear t =
  t.times <- [||];
  t.seqs <- [||];
  t.slots <- [||];
  t.size <- 0;
  t.next_seq <- 0;
  t.popped_time <- 0
