(** The [flowLink] goal: coordinate two slots so that they behave as if
    they had always been connected transparently (paper sections IV-A and
    VII).

    A flowlink reads all the signals from its two slots and controls all
    the signals written to them.  Its behaviour combines three mechanisms:

    {ul
    {- {e State matching} (paper Figure 12): from whatever pair of slot
       states it finds, it pushes toward one of the two goal states,
       {e both flowing} or {e both closed}, with a bias toward media flow
       — a closed slot paired with a live described slot is opened, not
       the other way round; a close received on one slot is propagated to
       the other.}
    {- {e Descriptor forwarding}: the flowlink caches the most recent
       descriptor received on each slot.  A slot is {e described} when it
       is opened or flowing; each side is {e up-to-date (utd)} when it has
       been sent the other side's most recent descriptor, whether inside
       an [open], an [oack], or a [describe].}
    {- {e Selector filtering}: selectors are forwarded end-to-end; before
       forwarding, the flowlink checks that the selector answers the
       outgoing side's current cached descriptor, discarding obsolete
       selectors.  No selector history is kept — only fresh selectors
       matter.}}

    Precondition: if both slots have a defined medium, the media must be
    equal. *)

open Mediactl_types
open Mediactl_protocol

(** Which of the flowlink's two slots a signal concerns. *)
type side = Left | Right

val other : side -> side
val pp_side : Format.formatter -> side -> unit

type t

type outcome = {
  goal : t;
  left : Slot.t;
  right : Slot.t;
  out : (side * Signal.t) list;  (** emissions, in order, tagged by slot *)
}

val start : ?filter_selectors:bool -> Slot.t -> Slot.t -> (outcome, Goal_error.t) result
(** Gain control of two slots in any states and immediately begin state
    matching.  [filter_selectors] (default [true]) enables the staleness
    check on forwarded selectors; turning it off exists only to
    demonstrate, in tests and ablation benches, why the check is part of
    the design (paper section X-E). *)

val on_signal : t -> left:Slot.t -> right:Slot.t -> side -> Signal.t ->
  (outcome, Goal_error.t) result
(** Process one signal received on the given side. *)

val up_to_date : t -> side -> bool
(** Whether this side has been sent the other side's current descriptor;
    exposed for tests and the model checker. *)

(** The complete per-side bookkeeping of a flowlink, exposed so the model
    checker's packed state codec ({!Mediactl_mc.Path_model}) can encode a
    goal object and rebuild it bit-for-bit. *)
type side_view = {
  v_utd : bool;  (** this side has the other side's current descriptor *)
  v_close_pending : bool;  (** a close received opposite awaits propagation *)
  v_pending_sel : Selector.t option;  (** a selector waiting to be forwarded *)
}

val view : t -> side -> side_view
(** The goal object's own record for that side, not a copy: reading it
    allocates nothing. *)

val of_views : ?filter_selectors:bool -> left:side_view -> right:side_view -> unit -> t
(** Rebuild a goal object from its persisted views — the inverse of
    {!view}.  [filter_selectors] defaults to [true], matching {!start}. *)

val filters_selectors : t -> bool

val pp : Format.formatter -> t -> unit
