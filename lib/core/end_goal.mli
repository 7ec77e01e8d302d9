(** The endpoint goals of paper section IV-A — openSlot, closeSlot and
    holdSlot — as the three cases of one type.

    Each controls one slot under one contract: gain control of the slot,
    react to every signal the slot receives, and emit signals into the
    slot's tunnel.  The cases differ only in the reactions they choose:

    {ul
    {- An {b openslot} opens a media channel and pushes it toward
       [flowing] at every opportunity.  It emits [open] and [oack], never
       [close].  A reject makes it open again; when its open races with
       the peer's and it is on the channel-acceptor side, it backs off
       and accepts instead (paper footnote 6).}
    {- A {b closeslot} gets its slot to [closed] and keeps it there.  It
       emits [close], never [open] or [oack]; once the slot is closed,
       any [open] from the peer is rejected at once (the [close] signal
       subsumes reject).}
    {- A {b holdslot} accepts a media channel and gets it to [flowing],
       but only if the other end of the signaling path asks.  It emits
       [oack], never [open] or [close]; a channel the other end closes
       stays closed until that end asks again.}}

    A box passes each slot's signals to whichever goal its [Maps]
    object binds there (paper section VII), so executors hold an
    [End_goal.t] and step it without asking its kind.  {!Flow_link} is
    not a case: it controls two slots at once and routes each emission
    to one of them.

    Every start and step below that changes its slot's state emits a
    [Goal] trace event naming the goal ["openSlot"], ["closeSlot"] or
    ["holdSlot"] ({!Goal_trace}). *)

open Mediactl_types
open Mediactl_protocol

(** The constructors are public so the model checker's packed state
    codec ({!Mediactl_mc.Path_model}) can write a goal's fields and
    rebuild the goal without touching a slot. *)
type t =
  | Open of { local : Local.t; want : Medium.t }
      (** an openslot: its media face and the medium it opens *)
  | Close  (** a closeslot, which carries no state *)
  | Hold of { local : Local.t }  (** a holdslot and its media face *)

type outcome = { goal : t; slot : Slot.t; out : Signal.t list }
(** The updated goal and slot, plus the signals to put in the tunnel, in
    order. *)

(** {2 Gaining control of a slot} *)

val open_slot : Local.t -> Medium.t -> Slot.t -> (outcome, Goal_error.t) result
(** Gain control of a closed slot and immediately send [open].  The slot
    must be [closed] when the goal gains control: openSlot is the only
    goal primitive with a state precondition. *)

val assume_open : Local.t -> Medium.t -> Slot.t -> (outcome, Goal_error.t) result
(** An openslot gaining control of a slot in {e any} state and pushing
    it toward flowing from that point: open it when closed, accept when
    opened, re-describe when flowing, and otherwise wait for the signals
    in flight.  This is the openslot of the paper's verification models,
    whose goal phase begins in an arbitrary state; box programs should
    normally use {!open_slot}, which enforces the [closed] precondition
    of the [openSlot] annotation. *)

val close_slot : Slot.t -> (outcome, Goal_error.t) result
(** Gain control of a slot in any state; close it at once when it is
    live. *)

val hold_slot : Local.t -> Slot.t -> (outcome, Goal_error.t) result
(** Gain control of a slot in any state; accept at once when the slot is
    already [opened], and re-describe when it is [flowing]. *)

val engage : Semantics.end_kind -> Local.t -> Medium.t -> Slot.t -> (outcome, Goal_error.t) result
(** The any-state start of an end kind: {!assume_open}, {!close_slot} or
    {!hold_slot}.  A closeslot ignores the media face and the medium, a
    holdslot the medium. *)

(** {2 Running} *)

val on_signal : t -> Slot.t -> Signal.t -> (outcome, Goal_error.t) result
(** React to a signal from the tunnel. *)

val modify : t -> Slot.t -> Mute.t -> (outcome, Goal_error.t) result
(** The user changes the mute flags of an openslot's or a holdslot's
    media face: when the slot is flowing, re-describe and re-select;
    otherwise the change takes effect at the next open or accept.  A
    closeslot has no media face, so modifying one is a
    [Precondition] error. *)

val kind : t -> Semantics.end_kind
