(** Signaling channels: two-way, FIFO, reliable connections between
    boxes, statically partitioned into tunnels and additionally carrying
    meta-signals that refer to the channel as a whole (paper section
    III-A).

    A channel knows which box initiated it; the initiator holds the [A]
    end of every tunnel, which fixes open-race priority. *)

open Mediactl_types

type t

val create : ?label:string -> ?tunnels:int -> initiator:string -> acceptor:string -> unit -> t
(** A fresh channel with [tunnels] empty tunnels (default 1).  [label]
    identifies the channel in trace events (defaults to
    ["initiator-acceptor"]).  Raises [Invalid_argument] when
    [tunnels < 1] or the box names coincide. *)

val label : t -> string
val initiator : t -> string
val acceptor : t -> string
val tunnel_count : t -> int

val end_of : t -> string -> Tunnel.end_
(** Which end of the channel's tunnels the named box holds.  Raises
    [Invalid_argument] for a box that is not an endpoint. *)

val peer_of : t -> string -> string

val tunnel : t -> int -> Tunnel.t
(** Raises [Invalid_argument] on an out-of-range index. *)

val send_signal : t -> from_box:string -> tunnel:int -> Signal.t -> t

val receive_signal : t -> at_box:string -> tunnel:int -> (Signal.t * t) option

val send_meta : t -> from_box:string -> Meta.t -> t

val receive_meta : t -> at_box:string -> (Meta.t * t) option

val quiescent : t -> bool
(** No signal or meta-signal in flight in either direction. *)

val pp : Format.formatter -> t -> unit
