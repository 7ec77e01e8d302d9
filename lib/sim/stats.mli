(** Summary statistics over samples collected during a simulation run.

    Samples are kept in a growable unboxed float array: {!add} allocates
    nothing except when the array doubles, and {!percentile} sorts once
    and reuses the sorted copy until the next {!add}. *)

type t

val create : unit -> t
val add : t -> float -> unit

val append : t -> t -> unit
(** [append dst src] adds every sample of [src] to [dst] in ascending
    order — the order {!samples} lists them — so sums pooled this way
    are bit-identical to adding that list one sample at a time. *)

val count : t -> int
val mean : t -> float
val stddev : t -> float
val min : t -> float
val max : t -> float

val samples : t -> float list
(** All samples added so far, in ascending order; samples that compare
    equal (the two zeros, NaNs) come newest first. *)

val histogram : ?bins:int -> t -> (float * float * int) list
(** Equal-width bins [(lo, hi, count)] over the sample range.  Empty
    when no samples were added.  Raises [Invalid_argument] when [bins]
    is not positive. *)

val percentile : t -> float -> float
(** [percentile t 0.5] is the median.  Raises [Invalid_argument] when no
    samples were added or the rank is outside [0, 1]. *)

val pp : Format.formatter -> t -> unit
