(** A hierarchical timer wheel: the simulation engine's hot-path
    scheduler.

    Eight levels of 32 slots bucket events by [floor (key /
    resolution)]; becoming-due buckets are sorted by [(key, seq)], so
    the pop order is {e exactly} the order of the reference leftist heap
    ({!Pqueue}), including the FIFO tie-break among equal keys — a
    property the test suite checks with qcheck.

    Cost: {!insert} is O(1).  A cell ahead of the cursor is consed onto
    its bucket; a cell already due (its tick at or behind the cursor's)
    is consed onto an unsorted late list.  Ordering is paid once, where
    cells become due: a bucket is sorted when the cursor reaches it, and
    the late list is sorted and merged into the due list by the next
    {!pop}, {!peek_key}, {!next_key} or {!drain_due}.  Taking a cell off
    the due list is O(1), and advancing the cursor re-links each cell at
    most once per level.  So n inserts at one key cost one O(n log n)
    sort, where the heap pays O(log n) per insert and per pop.

    Resolution bounds: keys must be non-negative and the wheel spans
    [32^8] ticks (about 35 years of simulated time at the default 1 ms
    resolution); later events overflow to a spill list consulted only
    when the wheel drains, preserving order at a cost.  The resolution
    affects only performance, never ordering: a coarser tick puts more
    events in one bucket and sorts more per pop. *)

type 'a t

val create : ?resolution:float -> unit -> 'a t
(** Default resolution 1.0 (one tick per simulated millisecond). *)

val insert : 'a t -> key:float -> seq:int -> 'a -> unit
(** [key] must be [>= ] every key already popped (the engine's clock
    never goes backward, so this always holds for [clock + delay]). *)

val pop : 'a t -> (float * int * 'a) option
val peek_key : 'a t -> float option

val next_key : 'a t -> float
(** Non-allocating {!peek_key} for the batch loop: the earliest stored
    key, or [nan] when the wheel is empty (nan fails every comparison,
    so an empty wheel falls out of drain guards naturally). *)

val drain_due : 'a t -> max:int -> 'a Vec.t -> int
(** [drain_due t ~max out] pops up to [max] cells that all share the
    earliest key — and only that key — appending their values to [out]
    in [(key, seq)] order; returns the count.  Draining one equal-key
    batch and dispatching it in order is observably identical to
    per-event {!pop}s: reactions can only schedule at [key] or later,
    and an insert at exactly [key] carries a higher seq than the whole
    batch (the engine's counter is monotonic), so it lands in the next
    batch — where per-event popping would also deliver it.  The suite's
    qcheck equivalence property exercises exactly this. *)

val size : 'a t -> int
val is_empty : 'a t -> bool
