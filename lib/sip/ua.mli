(** A SIP user agent at a media endpoint.

    Answers invites (producing an answer to an offer, or a fresh offer
    when solicited), acknowledges, and detects glare: an invite arriving
    while its own invite transaction is outstanding is refused with 491,
    and its own refused invites are retried after a randomly chosen delay
    (RFC 3261 section 14.1: the owner of the dialog retries after
    2.1–4 s, the other party after 0–2 s). *)

open Mediactl_types

type t

val create :
  Fabric.t ->
  name:string ->
  peer:string ->
  owner_of_dialog:bool ->
  Address.t ->
  willing:Codec.t list ->
  media:Sdp.line list ->
  t

val name : t -> string

val reinvite : t -> unit
(** Start a re-INVITE transaction offering this agent's media (the SIP
    counterpart of a [modify]); retried automatically on glare. *)

val remote : t -> Sdp.t option

val session_active : t -> bool
(** The agent holds a remote description whose media lines are all
    active (i.e. it is not on hold). *)

val glares : t -> int
(** How many 491 rejections this agent's own invites have suffered. *)

val retries : t -> int

val history : t -> (float * string) list
(** Every completed offer/answer exchange, oldest first, as
    [(time, owner of the remote description installed)]. *)

val own_done_at : t -> float option
(** When this agent's own (re-)INVITE last completed. *)
