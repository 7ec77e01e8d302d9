(** A small RTP-like packet model for studying media clipping.

    Clipping happens when media packets arrive at an endpoint before the
    endpoint is set up to receive them (paper section VI-A).  Under the
    protocol's {e relaxed} synchronization an endpoint may transmit as
    soon as it has sent a selector with a real codec, while the receiver
    only listens once it has received that selector; packets in flight
    during that window are lost.  Under {e eager} listening (paper
    footnote 5) the receiver accepts packets in any allowed codec as soon
    as it has sent its descriptor, eliminating clipping at the cost of
    always-on decoding. *)

open Mediactl_types

type packet = { seq : int; sent_at : float; codec : Codec.t }

val generate : start:float -> stop:float -> interval:float -> Codec.t -> packet list
(** Packets emitted by a sender transmitting from [start] (exclusive of
    nothing — the first packet goes out at [start]) until [stop], one
    every [interval]. *)

type account = { delivered : int; clipped : int }

val account : packet list -> transit:float -> ready_at:float -> account
(** Deliver each packet [transit] after it was sent; packets arriving
    before [ready_at] are clipped. *)
