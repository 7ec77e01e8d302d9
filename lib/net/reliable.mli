(** The reliability layer: retransmission over an impaired network.

    Sits between the timed driver and an {!Impair} engine and makes each
    directed link (channel, direction) behave as the reliable FIFO
    tunnel the signaling protocol assumes, in the style of go-back-N
    ARQ:

    - every frame gets a per-link sequence number; the receiver delivers
      strictly in order, suppressing duplicates (retransmissions whose
      acknowledgement was lost, or copies the network duplicated) and
      out-of-order copies before the protocol sees them;
    - the sender retransmits unacknowledged frames on a timer with
      exponential backoff, giving up — and counting a timeout — after a
      bounded number of retries;
    - acknowledgements are cumulative, travel the same impaired link,
      and can themselves be lost.

    Duplicate suppression is what lets the layer retransmit the
    non-idempotent handshake signals (open/oack/close/closeack) safely;
    the idempotent describe/select signals would survive duplicate
    delivery even without it, which the model checker verifies
    ({!Mediactl_mc.Path_model} fault transitions).

    Everything is driven by the simulation engine, so runs remain
    deterministic in the seeds. *)

open Mediactl_runtime

type config = {
  rto : float;  (** initial retransmission timeout (ms) *)
  backoff : float;  (** timeout multiplier per retry *)
  max_retries : int;  (** retransmissions before giving up on a frame *)
}

type counters = {
  mutable sends : int;  (** distinct frames offered by the protocol *)
  mutable transmissions : int;  (** copies put on the wire, incl. retransmits *)
  mutable retransmits : int;
  mutable delivered : int;  (** frames dispatched, in order, to the protocol *)
  mutable dup_suppressed : int;  (** duplicate copies dropped at the receiver *)
  mutable reorder_suppressed : int;  (** out-of-order copies dropped (go-back-N) *)
  mutable acks_sent : int;
  mutable acks_lost : int;
  mutable timeouts : int;  (** frames given up on after [max_retries] *)
}

type t

val attach : ?config:config -> Impair.t -> Timed.t -> t
(** Install the layer on the driver (it takes over both the impairment
    hook and the delivery filter).  Frames already in flight are
    delivered unfiltered.  Without an explicit [config], the driver's
    [n] and [c] give [rto = 2(2n + c)] — twice the minimum
    acknowledgement time — with backoff 2 and 10 retries. *)

val counters : t -> counters

val pending : t -> int
(** Frames sent but neither acknowledged nor given up on. *)

val pp_counters : Format.formatter -> counters -> unit
