(** The verification models of paper section VIII-A, generalized from a
    single signaling path to N-party topologies: one goal object
    controlling every slot, arranged either as a linear two-ended path
    or as a star of participant legs fanned through a central mixer
    box.

    Exactly as in the paper's Promela models, each goal object has two
    phases.  In its initial {e chaos} phase the slots it controls behave
    nondeterministically — any protocol-legal signal may be sent — and at
    a nondeterministically chosen point the object switches permanently
    to its goal behaviour, from whatever state the slots are in by then.
    Model checking therefore covers traces in which the goal objects
    begin their real work in all reachable combinations of slot and
    tunnel states.

    Users at media endpoints additionally have bounded freedom to change
    their mute flags ([modify] events).  Both freedoms are budgeted so
    the state space stays finite; the budgets are parameters.

    A {e star} topology models the conference box of paper Fig. 7: each
    participant leg runs participant -- flowlinks -- mixer-bridge, where
    the bridge end holds the leg open ({!Mediactl_core.Semantics.Hold_end}).
    Legs exchange no signals with one another (mixing is a media-plane
    concern), so the reachable space is the product of the per-leg
    spaces, coupled only through the shared network-fault budgets — and
    each leg carries its own temporal obligation ({!leg_specs}).

    Beyond the paper, the models can additionally give the {e network}
    bounded nondeterministic freedom to misbehave: a loss budget lets it
    silently drop in-flight signals, and a duplication budget lets it
    deliver a signal twice.  Both faults are restricted by default to
    the idempotent describe/select signals — the class the paper argues
    is safe to drop or replay because each one carries absolute state
    (section VI).  The handshake signals are outside that class; in a
    deployment they are protected by the reliability layer
    ({!Mediactl_net.Reliable}), which retransmits until acknowledged and
    deduplicates by sequence number.  Setting [unrestricted] lifts the
    restriction so the checker can demonstrate why that layer is
    necessary: faulting a handshake signal reachably desynchronises the
    slot state machines into protocol errors. *)

open Mediactl_core

(** Network-fault budgets shared across the whole topology. *)
type faults = {
  losses : int;  (** signals the network may silently drop *)
  dups : int;  (** signals the network may deliver twice *)
  unrestricted : bool;
      (** allow faulting any signal, not only the idempotent
          describe/select — expected to produce violations *)
}

val no_faults : faults

(** The shape of the model: a linear two-ended path, or a star of
    participant legs fanned through a central mixer box whose bridge
    end holds each leg open. *)
type topology =
  | Path of { left : Semantics.end_kind; right : Semantics.end_kind }
  | Star of { parties : Semantics.end_kind list }

type config = {
  topo : topology;
  flowlinks : int;  (** interior flowlinks per leg *)
  chaos : int;  (** chaos actions available to each goal object *)
  modifies : int;  (** mute changes available to each endpoint *)
  environment_ends : bool;
      (** segment-lemma mode (paper section VIII-B), path topology only:
          the path ends are pure environments — arbitrary protocol-legal
          actors that never settle into a goal — so the model checks the
          interior flowlinks against {e any} surrounding behaviour *)
  faults : faults;
}

val path_config :
  ?faults:faults ->
  ?environment_ends:bool ->
  left:Semantics.end_kind ->
  right:Semantics.end_kind ->
  flowlinks:int ->
  chaos:int ->
  modifies:int ->
  unit ->
  config
(** The historical two-ended path model. *)

val conf_config :
  ?faults:faults ->
  ?flowlinks:int ->
  parties:Semantics.end_kind list ->
  chaos:int ->
  modifies:int ->
  unit ->
  config
(** An N-party conference star: one leg per party, each fanned through
    [flowlinks] interior flowlinks (default 1 — the mixer box itself)
    into a holding bridge end.  Raises [Invalid_argument] on fewer than
    two parties. *)

val config_name : config -> string
(** E.g. ["openslot--fl--holdslot"] or
    ["conf3(openslot,openslot,openslot)--fl--mixer"]. *)

val leg_count : config -> int
(** Number of signaling legs: 1 for a path, the party count for a star. *)

val leg_specs : config -> Semantics.spec list
(** The temporal obligation of each leg, in leg order.  A path has
    exactly one (its configured end pair); a star leg's obligation is
    [spec_of party Hold_end]. *)

val spec : config -> Semantics.spec
(** The first (for a path: the only) leg's specification. *)

type state

val initial : config -> state

val error : state -> string option
(** A protocol or precondition error reached along the way — reachable
    errors are safety violations. *)

val leg_both_closed : int -> state -> bool
(** Leg [k]'s end slots are both closed (for a path: the historical
    bothClosed). *)

val leg_both_flowing : int -> state -> bool
(** Leg [k]'s end slots are both flowing {e and} their
    descriptor/selector views agree end to end (media actually flows as
    both ends believe). *)

val leg_ends_flowing : int -> state -> bool
(** The structural part of {!leg_both_flowing}: leg [k]'s end slots are
    both in the flowing state.  Used as the flowing predicate under a
    loss budget, where an unrepaired status loss legitimately leaves the
    agreement refinement stale — repairing it is the reliability layer's
    job ({!Mediactl_net.Reliable}, measured in experiment E9). *)

val all_settled : state -> bool
(** Every goal object has left its chaos phase. *)

val clean : state -> bool
(** Every slot on every leg is closed or flowing (the paper's
    final-state safety condition). *)

type label
(** A transition label, an immediate value: a graph stores it in one
    word per edge.  No state offers two moves with the same label, so a
    state and a label determine the successor. *)

val equal_label : label -> label -> bool
val pp_label : Format.formatter -> label -> unit
val pp_state : Format.formatter -> state -> unit

val successors : state -> (label * state) list

val pack : state -> string
(** A compact byte encoding of a state, canonical over the reachable
    states of any one configuration: structurally equal states always
    produce equal keys (which [Marshal.to_string], being
    sharing-sensitive, does not guarantee — see
    {!Mediactl_mc.Explorer.SYSTEM}).  Everything derivable from the
    configuration (slot labels and roles, endpoint media faces, flowlink
    locals, the [unrestricted] flag) is omitted, so keys are tens of
    bytes where a [Marshal] snapshot is hundreds.  Legs are packed in
    order, so a path topology produces byte-for-byte the historical
    two-ended encoding.  The explorer interns states under these keys.

    Each call writes into a per-domain scratch and allocates only the
    returned string, which never aliases the scratch.  Budgets,
    versions, queue lengths and flowlink indices take one byte each: a
    value outside 0–255 raises [Invalid_argument] rather than collide. *)

val unpack : config -> string -> state
(** [unpack c (pack s)] rebuilds [s] exactly, for any state [s] of
    configuration [c]. *)

val equal_state : state -> state -> bool
(** Structural equality, for the codec round-trip tests. *)

val standard_configs : ?faults:faults -> chaos:int -> modifies:int -> unit -> config list
(** The paper's 12 models: all six endpoint-goal combinations, with zero
    and one flowlink.  Default [faults] is {!no_faults} (the paper's
    reliable-network assumption). *)
