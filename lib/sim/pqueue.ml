(* A binary min-heap on (key, seq) in three parallel arrays.  Slot 0 is
   the root and the children of slot i are 2i + 1 and 2i + 2; slots at
   and beyond [size] are spare capacity.

   Keys never cross a function boundary on the pop side: [before]
   compares two slots by index, and [sift_down] reads the element it
   places from its old slot, so no float is boxed per pop.

   Values are stored as [Obj.t] so that a spare slot can hold the
   immediate [vacant] instead of a value.  Filling spare slots with
   copies of queued values is not enough: the cell moved out of the
   last slot by a pop leaves a copy behind, that value may be popped
   later, and the copy would keep it reachable for as long as the
   queue lives.  Every value enters through [Obj.repr] in [insert] and
   leaves through [Obj.obj] in [pop_min], at the queue's own ['a]; the
   arrays are made with an immediate, so they are never flat float
   arrays, whatever ['a] is. *)

type 'a t = {
  mutable keys : Float.Array.t;
  mutable seqs : int array;
  mutable vals : Obj.t array;
  mutable size : int;
}

let vacant = Obj.repr 0

let create () = { keys = Float.Array.create 0; seqs = [||]; vals = [||]; size = 0 }
let is_empty q = q.size = 0
let size q = q.size

let release q =
  q.keys <- Float.Array.create 0;
  q.seqs <- [||];
  q.vals <- [||];
  q.size <- 0

(* Every index below is under [size], which is within the capacity of
   all three arrays, so the accesses skip their bounds checks. *)

let before q a b =
  let ka = Float.Array.unsafe_get q.keys a and kb = Float.Array.unsafe_get q.keys b in
  ka < kb || (ka = kb && Array.unsafe_get q.seqs a < Array.unsafe_get q.seqs b)

let move q ~src ~dst =
  Float.Array.unsafe_set q.keys dst (Float.Array.unsafe_get q.keys src);
  Array.unsafe_set q.seqs dst (Array.unsafe_get q.seqs src);
  Array.unsafe_set q.vals dst (Array.unsafe_get q.vals src)

let grow q =
  let cap = if q.size = 0 then 8 else 2 * q.size in
  let keys = Float.Array.create cap in
  Float.Array.blit q.keys 0 keys 0 q.size;
  let seqs = Array.make cap 0 in
  Array.blit q.seqs 0 seqs 0 q.size;
  let vals = Array.make cap vacant in
  Array.blit q.vals 0 vals 0 q.size;
  q.keys <- keys;
  q.seqs <- seqs;
  q.vals <- vals

(* Move the hole at [i] up past every parent that the new (key, seq)
   precedes; returns where the hole stops. *)
let rec sift_up q i key seq =
  if i = 0 then 0
  else
    let p = (i - 1) / 2 in
    let pk = Float.Array.unsafe_get q.keys p in
    if key < pk || (key = pk && seq < Array.unsafe_get q.seqs p) then begin
      move q ~src:p ~dst:i;
      sift_up q p key seq
    end
    else i

let insert (q : 'a t) ~key ~seq (v : 'a) =
  if q.size = Array.length q.vals then grow q;
  let i = sift_up q q.size key seq in
  Float.Array.unsafe_set q.keys i key;
  Array.unsafe_set q.seqs i seq;
  Array.unsafe_set q.vals i (Obj.repr v);
  q.size <- q.size + 1

let min_key q =
  if q.size = 0 then invalid_arg "Pqueue.min_key: empty queue";
  Float.Array.unsafe_get q.keys 0

(* Move the hole at [i] down past every child that precedes the
   element at [last], the heap's old last slot, which no step writes
   (every slot touched is below [last]); returns where the hole
   stops. *)
let rec sift_down q i last =
  let l = (2 * i) + 1 in
  if l >= last then i
  else
    let c = if l + 1 < last && before q (l + 1) l then l + 1 else l in
    if before q c last then begin
      move q ~src:c ~dst:i;
      sift_down q c last
    end
    else i

(* The root is overwritten — by a child, or by the old last element —
   and the vacated last slot is cleared, so the popped value leaves
   the queue. *)
let pop_min (q : 'a t) : 'a =
  if q.size = 0 then invalid_arg "Pqueue.pop_min: empty queue";
  let top = Array.unsafe_get q.vals 0 in
  let last = q.size - 1 in
  q.size <- last;
  if last > 0 then move q ~src:last ~dst:(sift_down q 0 last);
  Array.unsafe_set q.vals last vacant;
  Obj.obj top

(* [out]'s length is the counter and [key] a local float, so the loop
   allocates nothing beyond [out]'s growth. *)
let drain_due q ~max out =
  if q.size = 0 then 0
  else begin
    let key = Float.Array.unsafe_get q.keys 0 in
    let base = Vec.length out in
    while Vec.length out - base < max && q.size > 0 && Float.Array.unsafe_get q.keys 0 = key do
      Vec.push out (pop_min q)
    done;
    Vec.length out - base
  end
