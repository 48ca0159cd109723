type 'a entry = { prio : int; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { data = [||]; size = 0; next_seq = 0 }

let length t = t.size

let is_empty t = t.size = 0

(* [lt a b] orders first by priority then by insertion sequence, giving
   deterministic FIFO behaviour among simultaneous events. *)
let lt a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

let grow t e =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let ndata = Array.make ncap e in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata
  end

let add t ~prio value =
  let e = { prio; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  grow t e;
  t.data.(t.size) <- e;
  t.size <- t.size + 1;
  (* Sift up. *)
  let i = ref (t.size - 1) in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if lt t.data.(!i) t.data.(parent) then begin
      let tmp = t.data.(!i) in
      t.data.(!i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      i := parent
    end else continue := false
  done

let min_prio t = if t.size = 0 then None else Some t.data.(0).prio

let min t = if t.size = 0 then None else Some (t.data.(0).prio, t.data.(0).value)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      (* Sift down. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.size && lt t.data.(l) t.data.(!smallest) then smallest := l;
        if r < t.size && lt t.data.(r) t.data.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = t.data.(!i) in
          t.data.(!i) <- t.data.(!smallest);
          t.data.(!smallest) <- tmp;
          i := !smallest
        end else continue := false
      done
    end;
    Some (top.prio, top.value)
  end

let clear t =
  t.data <- [||];
  t.size <- 0;
  t.next_seq <- 0
