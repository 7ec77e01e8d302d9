(* A hierarchical timer wheel over float timestamps.

   Events are bucketed by tick = floor(key / resolution).  Level [l] has
   32 slots, each spanning 32^l ticks; an event is stored at the highest
   level where its tick still shares all more-significant digits with
   the cursor, which keeps every stored slot strictly ahead of the
   cursor within its level.  Advancing the cursor into a higher-level
   slot redistributes ("cascades") its events into lower levels, so by
   the time an event is delivered it sits in a level-0 slot of its exact
   tick.  Buckets are sorted by (key, seq) as they become due, which
   makes the pop order exactly the (key, seq) lexicographic order of the
   reference heap ({!Pqueue}), including the FIFO tie-break.

   A cell whose tick is at or behind the cursor is already due.  It is
   consed onto the unsorted [late] list, and [settle] sorts that list
   once and merges it into [ready] before anything reads [ready]: so a
   burst of n due inserts (churn's t = 0 prefill puts its whole
   population at one key) costs one O(n log n) sort, not n walks of a
   sorted list. *)

let bits = 5
let wsize = 1 lsl bits (* 32 slots per level *)
let wmask = wsize - 1
let levels = 8 (* 32^8 ticks of horizon: ~35 years at 1 ms resolution *)

type 'a cell = { key : float; seq : int; value : 'a }

type 'a t = {
  resolution : float;
  slots : 'a cell list array array; (* [level].[slot], unsorted *)
  occ : int array; (* per-level slot-occupancy bitmask *)
  mutable cur : int; (* cursor tick, in level-0 granularity *)
  mutable ready : 'a cell list; (* due cells, sorted by (key, seq) *)
  mutable late : 'a cell list; (* due cells not yet merged into [ready], unsorted *)
  mutable overflow : 'a cell list; (* beyond the wheel's horizon *)
  mutable size : int;
}

let create ?(resolution = 1.0) () =
  if resolution <= 0.0 then invalid_arg "Twheel.create: resolution must be positive";
  {
    resolution;
    slots = Array.init levels (fun _ -> Array.make wsize []);
    occ = Array.make levels 0;
    cur = 0;
    ready = [];
    late = [];
    overflow = [];
    size = 0;
  }

let size t = t.size
let is_empty t = t.size = 0
let tick_of t key = int_of_float (key /. t.resolution)
let horizon = bits * levels

let cell_precedes a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

(* Every list the wheel stores is a cons chain; re-linking a cell as it
   cascades down the levels, goes onto [late] or merges into [ready] IS
   the data structure, not incidental garbage.  Each cell is re-consed
   at most [levels] + O(bucket) times over its lifetime, so the linkage
   is charged to scheduling — hence the waivers below. *)

(* Hoisted so [sort_cells] passes a static closure, not a fresh one per
   settle. *)
let cell_compare a b = if cell_precedes a b then -1 else 1

let sort_cells cells =
  (List.sort cell_compare cells
  [@lint.allow
    "alloc: one sort per due bucket or late burst; O(n log n) once per burst, where a sorted \
     insert would walk the due list per cell"])

(* Copies [ready] only up to the last late cell and shares the rest;
   tail-modulo-cons keeps the stack flat however long [ready] is. *)
let[@tail_mod_cons] rec merge ready late =
  match ready with
  | [] -> late
  | r :: ready' -> (
    match late with
    | [] -> ready
    | l :: late' ->
      if cell_precedes l r then l :: merge ready late' else r :: merge ready' late)
[@@lint.allow "alloc: due-list linkage; one cons per merged cell, same cons-chain budget as the buckets"]

(* Every reader of [ready] settles first.  When nothing is due yet,
   [merge] returns the sorted late list itself. *)
let settle t =
  match t.late with
  | [] -> ()
  | cells ->
    t.late <- [];
    t.ready <- merge t.ready (sort_cells cells)

(* The level at which [tick] and [cur] first share every
   more-significant digit; digits below it differ, so the slot index at
   that level is strictly ahead of the cursor's. *)
let rec level_of ~tick ~cur l =
  if l >= levels - 1 then levels - 1
  else if tick lsr (bits * (l + 1)) = cur lsr (bits * (l + 1)) then l
  else level_of ~tick ~cur (l + 1)

let place t cell =
  let tick = tick_of t cell.key in
  if tick <= t.cur then
    t.late <-
      (cell :: t.late
      [@lint.allow "alloc: late linkage; same cons-chain budget as the buckets"])
  else if tick lsr horizon <> t.cur lsr horizon then
    t.overflow <-
      (cell :: t.overflow
      [@lint.allow "alloc: overflow linkage past the wheel horizon; same cons-chain budget as the buckets"])
  else begin
    let l = level_of ~tick ~cur:t.cur 0 in
    let slot = (tick lsr (bits * l)) land wmask in
    t.slots.(l).(slot) <-
      (cell :: t.slots.(l).(slot)
      [@lint.allow "alloc: bucket linkage; amortized O(levels) conses per cell, charged to scheduling"]);
    t.occ.(l) <- t.occ.(l) lor (1 lsl slot)
  end

(* Cascade helper, hoisted: [List.iter (place t)] would build a fresh
   partial-application closure per cascade. *)
let rec place_all t = function
  | [] -> ()
  | c :: tl ->
    place t c;
    place_all t tl

(* [insert] is scheduling, not draining: it sits behind the engine's
   handler boundary, so the cell record here is outside the ALLOC001
   reachable set — one block per scheduled timer, by construction. *)
let insert t ~key ~seq value =
  t.size <- t.size + 1;
  place t { key; seq; value }

let take_slot t l i =
  let cells = t.slots.(l).(i) in
  t.slots.(l).(i) <- [];
  t.occ.(l) <- t.occ.(l) land lnot (1 lsl i);
  cells

let rec lowbit_idx m i = if m land 1 = 1 then i else lowbit_idx (m lsr 1) (i + 1)

(* The lowest set bit of [mask] at index >= [from]; -1 when none.  An
   int sentinel, not an option: this runs once per refill scan level on
   the drain path and a [Some] box per probe would be pure garbage. *)
let next_occupied mask from =
  if from >= wsize then -1
  else
    let m = mask land (-1 lsl from) in
    if m = 0 then -1 else lowbit_idx m 0

(* Earliest tick among [cells]; monomorphic int compare (a polymorphic
   [min] would box nothing here but trips ALLOC001's float-boxing rule,
   and the explicit compare is free anyway). *)
let rec min_tick t acc = function
  | [] -> acc
  | c :: tl ->
    let k = tick_of t c.key in
    min_tick t (if k < acc then k else acc) tl

(* Advance the cursor to the next occupied slot.  Precondition: [ready]
   and [late] are empty and at least one cell is stored in the wheel or
   the overflow list.  Scans each level from just past the cursor's
   digit; a hit at level 0 is the due bucket, sorted into [ready]; a
   hit higher up jumps the cursor to that slot's base tick and cascades
   its cells down, those at the new cursor tick landing in [late].  So
   after a cascade or a rebase [fill] must settle before it reads
   [ready] again. *)
let rec refill t l =
  if l >= levels then begin
    (* Wheel exhausted: everything left lives past the horizon.  Rebase
       the cursor on the earliest overflow tick and re-place. *)
    let cells = t.overflow in
    t.overflow <- [];
    t.cur <- min_tick t max_int cells;
    place_all t cells
  end
  else begin
    let digit = (t.cur lsr (bits * l)) land wmask in
    let i = next_occupied t.occ.(l) (digit + 1) in
    if i < 0 then refill t (l + 1)
    else begin
      let prefix = t.cur lsr (bits * (l + 1)) in
      t.cur <- ((prefix lsl bits) lor i) lsl (bits * l);
      let cells = take_slot t l i in
      if l = 0 then t.ready <- sort_cells cells else place_all t cells
    end
  end

(* Make the earliest cells due: settle [late] into [ready], and advance
   the cursor until something is.  Precondition: [size > 0]. *)
let rec fill t =
  settle t;
  if t.ready = [] then begin
    refill t 0;
    fill t
  end

let pop t =
  if t.size = 0 then None
  else begin
    fill t;
    match t.ready with
    | c :: rest ->
      t.ready <- rest;
      t.size <- t.size - 1;
      Some (c.key, c.seq, c.value)
    | [] -> None
  end

let peek_key t =
  if t.size = 0 then None
  else begin
    fill t;
    match t.ready with
    | c :: _ -> Some c.key
    | [] -> None
  end

(* ------------------------------------------------------------------ *)
(* Batch draining                                                      *)

(* Non-allocating peek for the batch loop: a bare float instead of an
   option.  [nan] when empty (every comparison with nan is false, so an
   empty wheel naturally fails both the [<= until] and drain guards). *)
let next_key t =
  if t.size = 0 then nan
  else begin
    fill t;
    match t.ready with
    | c :: _ -> c.key
    | [] -> nan
  end

(* Pop every due cell sharing the earliest key — and only that key —
   into [out], preserving (key, seq) order; returns the count.

   The equal-key bound is what makes batch dispatch equivalent to
   per-event pops: a handler reacting to a drained event can only
   schedule at [key + delay >= key], and an insert {e at} the batch key
   necessarily carries a seq greater than every drained cell (the
   engine's counter is monotonic), so it sorts after the whole batch —
   exactly where per-event popping would deliver it.  A batch spanning
   {e distinct} keys would break this: a reschedule landing between two
   batch keys would fire late.  [max] caps the batch so callers can
   honour an event budget mid-batch; the remainder keeps its order. *)
(* Hoisted drain loop: pops one equal-key cell per step by storing the
   remainder back into [t.ready], so it needs no counter ref, no
   remainder/count pair, and no closure over [key] — the drain path
   allocates nothing. *)
let rec drain_go t out ~max ~key n =
  match t.ready with
  | c :: rest when n < max && c.key = key ->
    Vec.push out c.value;
    t.ready <- rest;
    drain_go t out ~max ~key (n + 1)
  | _ -> n

let drain_due t ~max out =
  if max <= 0 || t.size = 0 then 0
  else begin
    fill t;
    match t.ready with
    | [] -> 0
    | first :: _ ->
      let n = drain_go t out ~max ~key:first.key 0 in
      t.size <- t.size - n;
      n
  end
[@@lint.hotpath]
