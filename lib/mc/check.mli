(** One-call verification of a path configuration: explore the model,
    run the safety checks, and decide the temporal specification — the
    two checks the paper performs on each of its 12 models (section
    VIII-A). *)

open Mediactl_core

(** A safety verdict carries its witness state id structurally, so
    counterexample extraction never re-parses a message or re-runs a
    check.  A capped run still scans every state it discovered for
    protocol errors, and its expanded states for the terminal
    conditions: what it finds is [Unsafe], and otherwise its safety is
    [Not_established]. *)
type safety = Safe | Unsafe of { witness : int; reason : string } | Not_established

type spec_result =
  | Spec_holds
  | Spec_violated of string
  | Inconclusive of string  (** exploration was capped *)

type report = {
  config : Path_model.config;
  spec : Semantics.spec;
  states : int;
  transitions : int;
  terminals : int;  (** expanded states with no successors *)
  time_s : float;
  capped : bool;
  safety : safety;
  spec_result : spec_result;
  counterexample : string list;
      (** a shortest trace of transition labels into the witness state;
          empty when safety and the specification both hold *)
}

val run : ?max_states:int -> ?jobs:int -> Path_model.config -> report
(** [jobs] (default 1) is the number of exploration domains; see
    {!Explorer.Make.explore_with}.  Every [jobs] value explores the
    same graph, with the same state ids, so the report is identical for
    every [jobs] value except in [time_s]: counts, verdicts, witnesses
    and counterexample, capped runs included.

    The checks read one int of predicate bits per state, kept when the
    state is discovered: whether it is in error, clean and settled,
    and, for each leg, whether its ends are both closed and whether
    they are flowing.  A counterexample's states are rebuilt by
    replaying its labels from the initial state.  Raises
    [Invalid_argument] before exploring a star with more legs than one
    int has bits for (30 on a 64-bit host). *)

val passed : report -> bool
(** Safety holds and the specification holds. *)

val pp_report : Format.formatter -> report -> unit

val pp_counterexample : Format.formatter -> report -> unit
(** Render the counterexample trace, one labelled step per line. *)

val run_standard :
  ?max_states:int ->
  ?jobs:int ->
  ?faults:Path_model.faults ->
  chaos:int ->
  modifies:int ->
  unit ->
  report list
(** Check all 12 standard models, optionally under a network-fault
    budget.  The full obligations — safety and the temporal
    specification — stay in force under faults: with the default
    idempotent-only restriction, losing or replaying absolute-state
    signals must change nothing the checks can observe (the paper's
    section VI claim, mechanised). *)

val run_segment : ?max_states:int -> ?jobs:int -> flowlinks:int -> chaos:int -> unit -> report
(** The segment lemma of paper section VIII-B: a contiguous piece of a
    signaling path — [flowlinks] interior flowlinks with arbitrary
    protocol-legal environments at the cut points — is free of protocol
    errors under every environment behaviour of up to [chaos] actions per
    cut point.  This is the building block the paper proposes for an
    inductive proof over paths of any length. *)
