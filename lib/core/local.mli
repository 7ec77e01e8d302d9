(** The local media face of a slot: what the goal object controlling the
    slot says about itself when it must describe a receiver of media or
    select a codec.

    A goal object at a genuine media endpoint has a real address, a
    priority-ordered codec list, and user-controlled mute flags.  A goal
    object in an application server is masquerading as a media endpoint:
    it can neither send nor receive packets fruitfully, so it mutes media
    flow in both directions (paper section IV-A) — its descriptors are
    [noMedia] and its selectors decline to transmit. *)

open Mediactl_types

type t = {
  owner : string;  (** names this endpoint; descriptor identity scope *)
  addr : Address.t;
  codecs : Codec.t list;  (** receivable codecs, best first *)
  willing : Codec.t list;  (** sendable codecs *)
  mute : Mute.t;
  version : int;  (** bumped by {!modify}; descriptor version *)
}

val endpoint : owner:string -> Address.t -> Codec.t list -> t
(** A genuine media endpoint that can send and receive the given codecs,
    with nothing muted. *)

val endpoint' :
  owner:string -> ?willing:Codec.t list -> ?mute:Mute.t -> Address.t -> Codec.t list -> t
(** Like {!endpoint} with asymmetric send/receive codec sets and initial
    mute flags. *)

val server : owner:string -> t
(** A server-side face: mutes both directions, placeholder address. *)

val descriptor : t -> Descriptor.t
(** The descriptor this face currently advertises: [noMedia] when
    [mute.mute_in] is set or the face is a server face, else the codec
    list at the current version. *)

val selector_for : t -> Descriptor.t -> Selector.t
(** The selector answering a received descriptor: [noMedia] when
    [mute.mute_out] is set (or a server face), else the best offered codec
    this face is willing to send. *)

val modify : t -> Mute.t -> t
(** New mute flags; bumps the descriptor version so peers can distinguish
    fresh descriptors from stale ones. *)

val pp : Format.formatter -> t -> unit
