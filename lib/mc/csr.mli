(** Compressed-sparse-row adjacency for explored state graphs.

    The explorer freezes its edge set into this form once exploration
    finishes; {!Temporal}, {!Scc} and path reconstruction then run over
    two flat [int array]s instead of per-state lists, so the checking
    passes touch memory sequentially and allocate nothing.

    Edges of state [v] occupy the index range [row.(v) .. row.(v+1) - 1]
    of [dst].  [row] has length [n + 1] with [row.(n)] equal to the edge
    count. *)

type t = private { row : int array; dst : int array }

val make : row:int array -> dst:int array -> t
(** Trusts the caller; [row] must be monotone with
    [row.(0) = 0] and [row.(n) = Array.length dst]. *)

val n : t -> int
(** Number of states. *)

val edges : t -> int
(** Number of edges. *)

val out_degree : t -> int -> int

val iter_succ : t -> int -> (int -> unit) -> unit
(** Iterate the successors of one state, in edge order. *)

val terminal : t -> int -> bool
(** [out_degree t v = 0]: the state stutters forever. *)

val terminal_count : ?below:int -> t -> int
(** Number of terminal states among ids [0 .. below - 1] (default: all
    of them), in one pass over the row offsets. *)

val of_lists : int list array -> t
(** Build from per-state successor lists (tests, toy graphs). *)

val restrict : t -> keep:(int -> bool) -> t
(** The subgraph induced by [keep]: dropped states keep their ids but
    lose all incident edges.  Two passes, no intermediate lists. *)
