(** Explicit-state exploration of a finite transition system.

    States are canonicalized by an injective string encoding supplied by
    the system ({!SYSTEM.pack}), exactly as Spin interns Promela state
    vectors (paper section VIII-A).  Exploration is breadth-first so
    that witness states found by the temporal checks are shallow.

    A checked state costs its key: {!Make.explore_with} keeps, for each
    state, only what its [keep] function projects, computed when the
    state is discovered.  The decoded state stays in memory only while
    it waits in the breadth-first frontier, and each edge stores its
    target id and its label.  {!Make.explore} keeps the states
    themselves.

    There is one search for every job count.  [explore ~jobs:n] with
    [n > 1] changes only how each level's successors are produced: [n]
    domains, the caller included, expand small chunks of the level,
    while the caller alone interns the chunks in frontier order and
    checks the cap.  So every job count returns the jobs-1 space itself
    — the same ids, kept values, rows, labels, [expanded] and [capped],
    for capped runs too — and only the wall-clock time changes. *)

module type SYSTEM = sig
  type state
  type label

  val successors : state -> (label * state) list
  (** All transitions enabled in a state.  An empty list means the state
      is terminal: infinite runs stutter there. *)

  val pack : state -> string
  (** A canonical encoding of the state, used as its intern key: two
      states must be structurally equal iff their packed strings are
      equal.  Systems with small per-slot state machines should bit-pack
      them into a compact fixed-width string — interning then hashes a
      few dozen bytes and allocates nothing else.  Systems without a
      compact encoder can fall back to [fun s -> Marshal.to_string s []],
      but beware that Marshal is only injective, not canonical: its
      output is sensitive to sharing inside the value, so structurally
      equal states built along different paths can serialize to
      different bytes.  The explorer then never merges distinct states,
      but it may split equal ones — verdicts stay sound while state
      counts (and exploration time) inflate.  This repository's seed
      had exactly that defect: experiment E10 measures 1.71x state
      inflation from Marshal keys on the standard sweep. *)

  val pp_label : Format.formatter -> label -> unit
  val pp_state : Format.formatter -> state -> unit
end

module Make (S : SYSTEM) : sig
  type 'a space = {
    states : 'a array;
        (** index = state id; id 0 is the initial state.  What was kept of
            each state: [keep state] for {!explore_with}, the state
            itself for {!explore} *)
    csr : Csr.t;  (** successor structure, frozen to compressed sparse row *)
    labels : S.label array;
        (** [labels.(k)] labels the transition stored at edge slot [k] of
            [csr.dst] *)
    transition_count : int;
    capped : bool;  (** true when [max_states] was hit — results are partial *)
    expanded : int;
        (** states [0 .. expanded - 1] had their successors explored; the
            rest, which only a capped run leaves, were discovered but
            never expanded, so their empty rows in [csr] say nothing *)
  }

  type graph = S.state space

  val explore_with :
    ?max_states:int ->
    ?jobs:int ->
    ?unpack:(string -> S.state) ->
    keep:(S.state -> 'a) ->
    S.state ->
    'a space
  (** Breadth-first reachability from the given initial state, keeping
      [keep state] for each discovered state.  Default [max_states] is
      1_000_000; default [jobs] is 1 (sequential).  [jobs > 1] explores
      with that many domains and returns the jobs-1 space (see the
      module description).

      Where [keep] runs: at jobs 1, once per state, on the calling
      domain, when the state is interned.  Under [jobs > 1], once per
      transition, on the domain that expands the transition's source,
      because that domain cannot tell whether the target is new; the
      caller keeps the value of the transition that discovers the
      state.  [keep] must therefore be a pure function of the state.

      [unpack] inverts {!SYSTEM.pack}.  It is required for correctness
      under [jobs > 1] whenever states embed {e domain-local} interned
      values — e.g. tunnels holding {!Mediactl_types.Signal_pack} words,
      whose intern ids are meaningless on another domain.  When given,
      the frontier of a run under [jobs > 1] holds keys, and the domain
      that expands a state first rebuilds it from its key, so every
      domain expands, and hands to [keep], only states whose interned
      parts live in its own tables.  At jobs 1, and without [unpack], a
      state is expanded from the value it was discovered as, so decoded
      states wait in the frontier until they are expanded. *)

  val explore : ?max_states:int -> ?jobs:int -> ?unpack:(string -> S.state) -> S.state -> graph
  (** [explore_with ~keep:Fun.id].  The returned [graph.states] holds
      values built by several domains under [jobs > 1]: inspect them
      only through functions that do not decode interned parts (the
      path-model predicates and printers qualify), or re-canonicalize
      with [unpack (pack s)] first. *)

  val succs : 'a space -> int -> (S.label * int) list
  (** The outgoing transitions of one state, materialized as a list
      (convenience for tests and trace printing; the checking passes use
      [csr] directly). *)

  val deadlocks : 'a space -> int list
  (** Ids of expanded states with no successors. *)

  val path_to : 'a space -> int -> (S.label option * int) list
  (** A shortest path from the initial state to the given id, as
      [(label leading into state, state id)] pairs; the first element is
      [(None, 0)]. *)
end
