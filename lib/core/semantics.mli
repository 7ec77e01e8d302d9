(** The compositional semantics of signaling paths (paper section V).

    A signaling path is a maximal chain of tunnels and flowlinks.  Each
    path end is controlled by an openslot, closeslot, or holdslot; taking
    symmetry into account there are six path types, each with a
    temporal-logic specification over the path states [bothClosed] and
    [bothFlowing]:

    {ul
    {- close/close, close/hold: [◇□ bothClosed]}
    {- close/open: [◇□ ¬bothFlowing]}
    {- open/open, open/hold: [□◇ bothFlowing]}
    {- hold/hold: [(◇□ bothClosed) ∨ (□◇ bothFlowing)]}}

    The predicates below evaluate the path states on the two endpoint
    slots, using the implementation-level definition of [bothFlowing]
    from paper section VIII-A: both ends flowing, each end has most
    recently received the descriptor most recently sent by the other end,
    and each end has most recently received a selector responding to its
    own most recent descriptor. *)

open Mediactl_types
open Mediactl_protocol

(** Which goal primitive controls a path end. *)
type end_kind = Open_end | Close_end | Hold_end

val pp_end_kind : Format.formatter -> end_kind -> unit

(** The four distinct temporal specifications: the obligations the
    runtime monitor judges a path's trace against. *)
type spec = Mediactl_obs.Monitor.obligation =
  | Eventually_always_closed  (** [◇□ bothClosed] *)
  | Eventually_always_not_flowing  (** [◇□ ¬bothFlowing] *)
  | Always_eventually_flowing  (** [□◇ bothFlowing] *)
  | Closed_or_flowing
      (** [(◇□ bothClosed) ∨ (□◇ bothFlowing)], evaluated per run *)

val spec_of : end_kind -> end_kind -> spec
(** The specification governing a path with the given end controls. *)

val spec_to_string : spec -> string

val both_closed : left:Slot.t -> right:Slot.t -> bool

val both_flowing : left:Slot.t -> right:Slot.t -> bool
(** The model-checking definition of [bothFlowing] (section VIII-A):
    descriptor and selector freshness at both ends, plus equal media. *)

val enabled_agrees :
  left_mute:Mute.t -> right_mute:Mute.t -> left:Slot.t -> right:Slot.t -> bool
(** The section-V enabledness equations, checked against the mute flags
    chosen at the two ends: [Lenabled = ¬LmuteIn ∧ ¬RmuteOut] and
    [Renabled = ¬RmuteIn ∧ ¬LmuteOut].  Meaningful in a [bothFlowing]
    state; [Lenabled] is the left slot's receive-enabled bit. *)
