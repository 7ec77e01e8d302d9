(** A slot pool for per-shard resident-session bookkeeping.

    A churn shard keeps its resident sessions in numbered slots: the
    shard timeline schedules [Hangup slot] as a flat index, and the cells
    carrying per-session state are recycled through a LIFO free list —
    the same buffer-reuse discipline the trace ring and the
    [Signal_pack] intern tables apply — so the pool's footprint tracks
    the {e peak} population, not the total arrivals.

    Ownership rule: a pool belongs to the one domain that drives its
    shard; cells must never cross domains.  [release] scrubs the cell
    (via the [clear] closure given at {!create}) so the retired
    occupant's session, trace, and metrics become collectable — and so
    nothing of one occupant can leak into the next. *)

type 'a t

val create : make:(unit -> 'a) -> clear:('a -> unit) -> unit -> 'a t
(** [make] builds a fresh cell when the free list is empty; [clear]
    scrubs a cell at {!release} (null out references, reset counters). *)

val acquire : 'a t -> int * 'a
(** Hand out a slot: the most recently released cell if one is free
    (cache-warm, already scrubbed), else a fresh [make ()].  Returns
    the slot index and its cell. *)

val get : 'a t -> int -> 'a
(** @raise Invalid_argument if the slot was never handed out. *)

val release : 'a t -> int -> unit
(** Scrub the cell and push the slot on the free list.  The cell value
    itself is retained for reuse by the next {!acquire}. *)

val iter_live : (int -> 'a -> unit) -> 'a t -> unit
(** Visit every occupied slot in slot-index order (deterministic; the
    churn driver's final drain depends on that). *)

val live : 'a t -> int
val peak : 'a t -> int

val capacity : 'a t -> int
(** Slots ever handed out (live + free). *)
