(** The event queue: a mutable binary min-heap keyed by floats, with a
    sequence number to break ties deterministically — among equal keys
    the smaller seq pops first, so events scheduled earlier fire first.
    Every queue in the runtime is one of these: each session's
    {!Engine}, each churn shard's timeline and the daemon's wall-clock
    timers.

    Keys live unboxed in a [Float.Array.t], seqs in an [int array] and
    values in a third array; the arrays grow by doubling.  Both sifts
    move a hole rather than swapping, so once the arrays have grown
    {!insert} and {!pop_min} allocate nothing.  A popped value is not
    kept reachable by the queue: every slot a pop vacates is
    cleared. *)

type 'a t

val create : unit -> 'a t
(** An empty queue holding no storage. *)

val is_empty : 'a t -> bool
val size : 'a t -> int

val insert : 'a t -> key:float -> seq:int -> 'a -> unit
(** O(log n).  A new cell that does not precede its parent costs one
    comparison: a run of equal keys inserted with rising seqs (churn's
    t = 0 prefill) is O(1) per insert. *)

val min_key : 'a t -> float
(** The smallest key.  @raise Invalid_argument on an empty queue. *)

val pop_min : 'a t -> 'a
(** Remove and return the value with the smallest [(key, seq)].
    O(log n).  An emptied queue keeps its arrays, ready for the next
    insert (see {!release}).  @raise Invalid_argument on an empty
    queue. *)

val release : 'a t -> unit
(** Drop the arrays and every value in them, leaving an empty queue
    that holds no storage; the next {!insert} grows it again.  Call it
    on a queue that will stay empty for long: a dormant churn
    resident's engine holds only the queue record. *)

val drain_due : 'a t -> max:int -> 'a Vec.t -> int
(** [drain_due q ~max out] pops up to [max] values that all share the
    smallest key — and only that key — appending them to [out] in
    [(key, seq)] order; returns the count.  Draining one equal-key
    batch and dispatching it in order is observably identical to one
    {!pop_min} per event: a reaction can only schedule at the batch
    key or later, and an insert at exactly that key carries a higher
    seq than the whole batch (the caller's counter is monotonic), so
    it lands in the next batch — where per-event popping would also
    deliver it.  A batch spanning distinct keys would break this: a
    reschedule landing between two batch keys would fire late.  [max]
    caps the batch so a caller can bound the work between two checks;
    the rest of the batch keeps its order and comes out first on the
    next call. *)
