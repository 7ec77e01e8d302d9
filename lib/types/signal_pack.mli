(** Interned, int-packed signals: a signal in flight as one immediate.

    Descriptors and selectors are interned into {e domain-local} tables
    (the [Path_model.pack] trick applied to live traffic), so a packed
    signal is a single unboxed int and repeated {!unpack}s of the same
    word return the same interned [Signal.t] block without allocating.

    The intern ids are per-domain artifacts: two domains number the same
    descriptor differently, and ids from one domain are meaningless (or
    wrong) on another.  Never let a packed word or an intern id cross a
    domain boundary or reach a digest, a JSON export, or persisted
    state — always unpack to structural values first.  Everything here
    is domain-safe without locks precisely because nothing is shared. *)

val pack : Signal.t -> int
(** Structurally equal signals pack to the same word within a domain. *)

val unpack : int -> Signal.t
(** The interned signal for a word produced by {!pack} {e on this
    domain}.  @raise Invalid_argument on a word from another domain
    whose ids this domain has not interned. *)

val tag : int -> int
(** Constructor tag of a packed word, without unpacking. *)

val name : int -> string
(** [Signal.name] of a packed word, without unpacking or allocating. *)
