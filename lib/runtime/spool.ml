(* A slot pool for per-shard resident-session bookkeeping.

   A churn shard holds its resident sessions in numbered slots so the
   hot path works with flat indices — the shard timeline schedules
   [Hangup slot], not a heap-allocated closure per arrival — and so
   the cells that carry per-session state are recycled: a retired
   session's cell is pushed on a LIFO free list and handed to the next
   arrival, the same reuse discipline the trace ring and the
   [Signal_pack] intern tables apply to their buffers.  LIFO keeps the
   live slot range compact (recently freed, cache-warm cells are
   reused first), so the resident set's footprint tracks the peak
   population, not the total arrivals.

   The pool never shrinks; [release] must null out whatever the cell
   references (via the [clear] closure) so a retired occupant's
   session, trace, and metrics become collectable instead of being
   pinned until the slot's next reuse. *)

open Mediactl_sim

type 'a t = {
  make : unit -> 'a;  (* fresh cell, when the free list is empty *)
  clear : 'a -> unit;  (* scrub a cell at release *)
  mutable cells : 'a array;
  mutable n : int;  (* slots ever handed out; cells.(0 .. n-1) are real *)
  free : int Vec.t;  (* LIFO free list of slot indices *)
  mutable live : int;
  mutable peak : int;
}

let create ~make ~clear () =
  { make; clear; cells = [||]; n = 0; free = Vec.create (); live = 0; peak = 0 }

let live t = t.live
let peak t = t.peak
let capacity t = t.n

let get t slot =
  if slot < 0 || slot >= t.n then invalid_arg "Spool.get: slot out of range";
  t.cells.(slot)

let acquire t =
  let slot =
    if Vec.length t.free > 0 then Vec.pop_last t.free
    else begin
      let i = t.n in
      let cap = Array.length t.cells in
      if i >= cap then begin
        let cell = t.make () in
        let cells =
          (Array.make (if cap = 0 then 16 else 2 * cap) cell
          [@lint.allow
            "alloc: pool doubling while the resident population is still growing; the pool \
             never shrinks, so a steady-state shard acquires off the free list only"])
        in
        Array.blit t.cells 0 cells 0 i;
        t.cells <- cells;
        t.cells.(i) <- cell
      end
      else t.cells.(i) <- t.make ();
      t.n <- i + 1;
      i
    end
  in
  t.live <- t.live + 1;
  if t.live > t.peak then t.peak <- t.live;
  ((slot, t.cells.(slot))
  [@lint.allow
    "alloc: one pair per session arrival — lifecycle-phase work, which E15 accounts \
     separately from the per-event drain budget"])
[@@lint.hotpath]

let release t slot =
  if slot < 0 || slot >= t.n then invalid_arg "Spool.release: slot out of range";
  t.clear t.cells.(slot);
  Vec.push t.free slot;
  t.live <- t.live - 1
[@@lint.hotpath]

(* Slot-index order — deterministic, which the churn driver's final
   drain relies on.  Cold path (once per run), so building the
   occupancy mask is fine. *)
let iter_live f t =
  if t.n > 0 then begin
    let is_free = Array.make t.n false in
    Vec.iter (fun i -> is_free.(i) <- true) t.free;
    for i = 0 to t.n - 1 do
      if not is_free.(i) then f i t.cells.(i)
    done
  end
