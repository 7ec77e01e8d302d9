(** A network of boxes: the general runtime over which box programs and
    scenarios execute.

    Boxes hold slots; each slot is the endpoint of a tunnel of a
    signaling channel between two boxes.  The dynamic association between
    slots and goal objects — the paper's [Maps] object (section VII) — is
    the [binding] of each slot: an endpoint goal (an openslot, closeslot,
    or holdslot), membership in a flowlink, or [Unbound] while a box
    program has not yet decided.

    The structure is pure: operations return a new network plus the list
    of {e sends} they caused, so a timed driver can schedule each signal's
    arrival.  Errors (protocol violations, misuse) are recorded in the
    network rather than raised, mirroring how the model checker treats
    them. *)

open Mediactl_types
open Mediactl_core
open Mediactl_protocol

(** A slot within a box: the tunnel [tun] of channel [chan]. *)
type slot_key = { chan : string; tun : int }

(** A slot in the network. *)
type slot_ref = { box : string; key : slot_key }

val slot_ref : box:string -> chan:string -> ?tun:int -> unit -> slot_ref

(** One signal put into a tunnel, awaiting delivery at box [to_]. *)
type send = { s_chan : string; s_tun : int; to_ : string }

type binding =
  | End_b of End_goal.t
  | Link_b of string * Flow_link.side  (** member of the named flowlink *)
  | Unbound

type t

val empty : t

val err : t -> string option
(** The first error recorded, if any; every operation on an erroneous
    network is a no-op. *)

(** {2 Topology} *)

val add_box : t -> string -> t

val connect :
  t -> chan:string -> ?tunnels:int -> initiator:string -> acceptor:string -> unit -> t
(** Create a signaling channel; both boxes get one [Unbound] slot per
    tunnel, with protocol roles fixed by who initiated. *)

val disconnect : t -> chan:string -> t
(** Destroy a channel with all its tunnels and slots (the meta-action a
    box program performs when it destroys a signaling channel).  Any
    flowlink with a member slot on this channel is dissolved; its other
    slot becomes [Unbound]. *)

val boxes : t -> string list
val channels : t -> string list
val has_channel : t -> string -> bool

val peer_of_chan : t -> chan:string -> box:string -> string option
(** The box at the other end of a channel. *)

(** {2 Slot access} *)

val slot : t -> slot_ref -> Slot.t option
val binding : t -> slot_ref -> binding option
val slots_of_box : t -> string -> (slot_key * Slot.t) list

(** {2 Binding goal objects (the Maps operations)} *)

val bind_open : t -> slot_ref -> Local.t -> Medium.t -> t * send list
(** Requires the slot closed (the openSlot precondition). *)

val bind_close : t -> slot_ref -> t * send list
val bind_hold : t -> slot_ref -> Local.t -> t * send list

val bind_end : t -> slot_ref -> Semantics.end_kind -> Local.t -> Medium.t -> t * send list
(** Bind a goal of the given kind through its any-state start
    ({!End_goal.engage}), whatever the slot's state. *)

val bind_link : t -> box:string -> id:string -> slot_key -> slot_key -> t * send list
(** Flowlink two slots of the same box.  Slots currently in other
    flowlinks are released first (the released partner becomes
    [Unbound]). *)

val modify : t -> slot_ref -> Mute.t -> t * send list
(** Change the mute flags of an endpoint-bound slot. *)

(** {2 Meta-signals} *)

val send_meta : t -> chan:string -> from:string -> Meta.t -> t
val take_meta : t -> chan:string -> at:string -> (Meta.t * t) option

(** {2 Signal transport} *)

val deliverables : t -> send list
(** Signals ready for delivery, per tunnel end. *)

val deliver : t -> send -> (t * send list) option
(** Deliver the oldest signal on that tunnel toward that box; [None] if
    nothing is pending there. *)

val take : t -> send -> (Signal.t * t) option
(** Pop the oldest signal awaiting delivery toward that box {e without}
    dispatching it.  An impaired transport uses this to carry the payload
    itself (and possibly lose, duplicate, or delay it) instead of relying
    on the tunnel's reliable FIFO. *)

val inject : t -> send -> Signal.t -> (t * send list) option
(** Dispatch a signal at the receiving slot as if it had just arrived,
    without consuming anything from the tunnel: the delivery half of
    {!take}, also usable to model duplicate or retransmitted deliveries.
    [None] only when the network is already erroneous. *)

val run : ?max_steps:int -> t -> t * bool
(** Drain all signal queues in deterministic order ([true] = quiescent).
    Meta-signals are left for the application layer. *)

(** {2 Inspection} *)

val find_link : t -> box:string -> id:string -> (Flow_link.t * slot_key * slot_key) option
