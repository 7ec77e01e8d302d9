(** The protocol endpoint machine at a slot (paper Figure 9, section VI).

    A slot is the endpoint of a tunnel at a box.  Every slot is a protocol
    endpoint: it sees all signals received from its tunnel and sends all
    signals into it, and from this complete view it maintains the full
    implementation-level state of the slot — protocol state, medium, and
    cached descriptors/selectors (paper section VII).

    The machine is a pure transition system: {!receive} and the [send_*]
    operations return a new slot value plus emitted signals.  This lets
    the same code be driven by the discrete-event simulator and explored
    exhaustively by the model checker.

    {2 Race resolution}

    Two [open] signals may cross within a tunnel.  The race is detected by
    both slots (each sends an open and receives one in return); the winner
    is always the end that initiated setup of the signaling channel, which
    is fixed and unambiguous (paper section VI-B).  The winning slot
    ignores the incoming open and keeps waiting for its [oack]; the losing
    slot backs off and becomes the acceptor of the winner's open.  A
    further wrinkle found by model checking: the winner may abandon with a
    [close] that chases its own open, so a crossing open can also arrive
    at a slot in the [closing] state, where it is stale and dropped. *)

open Mediactl_types

(** Which end of the signaling channel this slot sits on; decides open
    races. *)
type role = Channel_initiator | Channel_acceptor

type t = {
  label : string;  (** for traces only; not part of protocol state *)
  role : role;
  state : Slot_state.t;
  medium : Medium.t option;  (** defined iff the slot is not closed *)
  remote_desc : Descriptor.t option;
      (** most recent descriptor received in an open, oack, or describe *)
  sent_desc : Descriptor.t option;  (** most recent descriptor we sent *)
  recv_sel : Selector.t option;  (** most recent selector received *)
  sent_sel : Selector.t option;  (** most recent selector we sent *)
}

(** What a received signal meant, for the goal object watching the slot. *)
type note =
  | Opened_by_peer  (** an [open] arrived; the slot is now [Opened] *)
  | Accepted_by_peer  (** an [oack] arrived; the slot is now [Flowing] *)
  | Closed_by_peer
      (** a [close] arrived; a [closeack] was auto-emitted and the slot is
          now [Closed] (or remains [Closing] if a close crossed ours) *)
  | Close_confirmed  (** our close was acknowledged; now [Closed] *)
  | Race_won  (** peer's crossing open ignored; still [Opening] *)
  | Race_lost
      (** we backed off and adopted the peer's open; now [Opened] and this
          slot must act as acceptor *)
  | New_descriptor  (** a [describe] arrived and was cached *)
  | New_selector  (** a [select] arrived and was cached *)
  | Dropped of Signal.t  (** a stale signal was discarded while closing *)

type error =
  | Unexpected_signal of { state : Slot_state.t; signal : Signal.t }
  | Illegal_send of { state : Slot_state.t; operation : string }

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val create : label:string -> role -> t
(** A fresh slot in the [Closed] state with empty caches. *)

(** {2 Receiving} *)

val receive : t -> Signal.t -> (t * Signal.t list * note list, error) result
(** [receive slot signal] processes one signal from the tunnel.  The
    returned signal list holds protocol-mandated automatic replies (a
    [closeack] answering a [close]); everything else is decided by the
    slot's goal object from the notes. *)

(** {2 Sending}

    Each operation checks protocol legality and returns the signal to put
    into the tunnel. *)

val send_open : t -> Medium.t -> Descriptor.t -> (t * Signal.t, error) result
(** Legal in [Closed]; moves to [Opening]. *)

val send_oack : t -> Descriptor.t -> (t * Signal.t, error) result
(** Legal in [Opened]; moves to [Flowing]. *)

val send_close : t -> (t * Signal.t, error) result
(** Legal in any live state; moves to [Closing].  Sent from [Opened] it
    plays the role of reject (paper: [close] subsumes [reject]). *)

val send_describe : t -> Descriptor.t -> (t * Signal.t, error) result
(** Legal in [Flowing] (any time after sending or receiving oack). *)

val send_select : t -> Selector.t -> (t * Signal.t, error) result
(** Legal in [Flowing]. *)

(** {2 Observations} *)

val is_closed : t -> bool
val is_opening : t -> bool
val is_opened : t -> bool
val is_flowing : t -> bool
val is_closing : t -> bool
val is_live : t -> bool

val described : t -> bool
(** A slot is described when a current descriptor has been received for
    it: it is in the [Opened] or [Flowing] state (paper section VII). *)

val tx_enabled : t -> bool
(** True when this end may transmit media: the slot is flowing and the
    most recent selector we sent answers the peer's current descriptor
    with a real codec. *)

val rx_enabled : t -> bool
(** True when this end should be receiving media: the slot is flowing and
    the most recent selector received answers our current descriptor with
    a real codec. *)

val tx_codec : t -> Codec.t option
(** The codec we are sending with, when {!tx_enabled}. *)

val rx_codec : t -> Codec.t option

val equal : t -> t -> bool
(** Structural equality of protocol state (ignores [label]); used by the
    model checker to canonicalize global states. *)

val pp : Format.formatter -> t -> unit
