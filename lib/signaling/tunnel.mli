(** Tunnels: the static partitions of a signaling channel, each providing
    a separate two-way signaling capability controlling one media channel
    (paper section III-A).

    A tunnel is a pair of reliable FIFO queues, one per direction.  The
    two ends are called [A] and [B]; by convention [A] is the end at the
    box that initiated setup of the signaling channel, which is the
    convention the protocol uses to resolve open races.  The
    representation is purely functional so that tunnel contents take part
    in the model checker's state. *)

open Mediactl_types

type end_ = A | B

val opposite : end_ -> end_

type t

val empty : t

val send : from:end_ -> Signal.t -> t -> t
(** Enqueue a signal travelling away from [from]. *)

val receive : at:end_ -> t -> (Signal.t * t) option
(** Dequeue the oldest signal arriving at [at], if any. *)

val peek : at:end_ -> t -> Signal.t option

val pending : toward:end_ -> t -> Signal.t list
(** Signals in flight toward that end, oldest first.  Decodes the
    packed queue, so it allocates; hot paths that only need emptiness
    should use {!has_pending}. *)

val has_pending : toward:end_ -> t -> bool
(** Allocation-free [pending ~toward t <> []]. *)

val queue_toward : toward:end_ -> t -> int list
(** The queue itself: {!Signal_pack} words in flight toward that end,
    oldest first.  Reading it allocates nothing.  The words are
    domain-local, so decode each with [Signal_pack.unpack] on the domain
    that built the tunnel. *)

val in_flight : t -> int
(** Total signals in both directions. *)

val is_empty : t -> bool

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
