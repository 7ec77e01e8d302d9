(** A parametric relinking laboratory for the latency analysis of paper
    section VIII-C.

    The latency of providing media flow from a signaling path is measured
    from the moment the {e last} flowlink in the path is initialized; the
    paper derives the average signaling delay

    {v p·n + (p+1)·c v}

    where [p] is the number of hops between the last flowlink and its
    farther endpoint.

    [build ~boxes ~j] makes a path [L — B1 — … — Bk — R] in which every
    interior box except [Bj] has a flowlink and [Bj] holds its two slots;
    both halves are live (L and R are openslots, so each half flows up to
    [Bj]).  {!measure} relinks [Bj], which completes the path; the
    farther endpoint is [max j (k + 1 - j)] hops away. *)

open Mediactl_runtime

val build : boxes:int -> j:int -> Netsys.t
(** Requires [1 <= j <= boxes].  The network is returned run to
    quiescence, ready to relink. *)

val measure :
  n:float -> c:float -> ?attach:(Timed.t -> unit) -> j:int -> Netsys.t -> float
(** [measure ~n ~c ~j net]: at t = 0 box [Bj] of [net] (a {!build}
    with the same [j]) replaces its two holdslots by a flowlink, under a
    fresh timed driver that then runs to quiescence.  Returns the first
    time L and R each transmit toward the other, or [nan] if they never
    do.  [attach] runs on the driver before the watch and the relink:
    point the trace clock at it, or put an impaired network under it. *)

val hops : boxes:int -> j:int -> int
(** [p]: hops between Bj and its farther endpoint. *)

val formula : p:int -> n:float -> c:float -> float
(** [p·n + (p+1)·c]. *)
