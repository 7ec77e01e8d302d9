(** A direct-mapped cache in front of an interning table, matched by
    physical identity.

    Each slot holds one key block and the value the table gave it.  A
    lookup computes the slot from the key's content, and hits only if
    that slot holds the very same block ([==]); otherwise it asks the
    table and stores the answer in the slot.  A hit is a load and a
    pointer compare: no [caml_hash], no [caml_compare].

    Correctness rests on one invariant: the keys are immutable and the
    table gives equal content one value for its whole lifetime (ids are
    never reassigned).  Physical identity then implies equal content,
    which implies the same value, so a slot never goes stale and the
    cache never needs invalidating.  The slot function only spreads keys
    apart; any function of the content is correct.

    A cache is mutable and unsynchronised: keep it next to the table it
    fronts, in [Domain.DLS] or per-shard state. *)

type ('k, 'v) t

val create : int -> absent:'k -> 'v -> ('k, 'v) t
(** [create size ~absent v]: [size] slots (a power of two), each
    holding [absent] and [v].  [absent] must be a block no caller can
    pass to {!find}, so an unfilled slot never hits. *)

val find : ('k, 'v) t -> slot:int -> 'k -> 'ctx -> ('ctx -> 'k -> 'v) -> 'v
(** [find c ~slot key ctx miss] is the value cached for [key] in slot
    [slot land (size - 1)], or else [miss ctx key], which is then
    cached there.  [miss] should be a closed function, so that a call
    allocates no closure. *)

val string_slot : string -> int
(** A slot for a string: its length and three of its bytes. *)
