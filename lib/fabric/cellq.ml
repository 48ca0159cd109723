(* A growable ring buffer used for the per-VOQ cell queues. Unlike
   Stdlib.Queue (a linked list that conses on every [add]), pushes and
   pops in steady state touch only the preallocated backing array, so
   the fabric slot loop does not churn the minor heap. Cleared slots
   are overwritten with [dummy] so popped cells do not linger as GC
   roots. *)

type 'a t = {
  dummy : 'a;
  mutable buf : 'a array;
  mutable head : int;  (* index of the front element *)
  mutable len : int;
}

let initial_capacity = 8

let create ~dummy =
  { dummy; buf = Array.make initial_capacity dummy; head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (2 * cap) t.dummy in
  for k = 0 to t.len - 1 do
    buf.(k) <- t.buf.((t.head + k) mod cap)
  done;
  t.buf <- buf;
  t.head <- 0

let push t x =
  if t.len = Array.length t.buf then grow t;
  t.buf.((t.head + t.len) mod Array.length t.buf) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Cellq.pop: empty";
  let x = t.buf.(t.head) in
  t.buf.(t.head) <- t.dummy;
  t.head <- (t.head + 1) mod Array.length t.buf;
  t.len <- t.len - 1;
  x

let peek t =
  if t.len = 0 then invalid_arg "Cellq.peek: empty";
  t.buf.(t.head)

let peek_opt t = if t.len = 0 then None else Some (peek t)
