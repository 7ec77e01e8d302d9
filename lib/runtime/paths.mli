(** Signaling-path extraction over a network (paper section III-A).

    A signaling path is a maximal chain of tunnels and flowlinks.  Path
    ends are slots not assigned to any flowlink; interior slots belong to
    flowlinks, which join two tunnels.  The extraction is how the rule of
    {e proximity confers priority} is encoded structurally: each box on a
    path controls everything beyond it, simply by deciding what its slots
    are linked to. *)

open Mediactl_core

type endpoint = {
  ref_ : Netsys.slot_ref;
  kind : Semantics.end_kind option;
      (** [None] when the slot is unbound rather than goal-controlled *)
}

type t = {
  left : endpoint;
  right : endpoint;
  tunnels : int;  (** number of tunnels on the path *)
}

val all : Netsys.t -> t list
(** Every signaling path in the network, each reported once. *)

val find : Netsys.t -> a:string -> b:string -> t option
(** The path whose two end slots live in boxes [a] and [b], if any. *)

val spec : t -> Semantics.spec option
(** The section-V specification applicable to this path, when both ends
    are goal-controlled. *)

val flow : Netsys.t -> t -> Mediactl_media.Flow.t option
(** The media-flow snapshot over this path, named by the endpoint
    boxes. *)

val flows : Netsys.t -> Mediactl_media.Flow.t list
(** Snapshots for all paths. *)

val transmits_toward : Netsys.slot_ref -> string -> Netsys.t -> bool
(** [transmits_toward r owner net]: the slot [r] may transmit, and its
    current peer descriptor is owned by [owner].  The convergence
    predicate of the Figure-13 and section VIII-C latency drivers. *)

val pp : Format.formatter -> t -> unit
