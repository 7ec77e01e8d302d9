(** One call inside a daemon: a two-box, one-channel signaling path in
    a network of its own, run by its own driver on the daemon's wall
    clock, with a goal object engaged at each locally owned end.

    A {e local} call owns both ends, and its signals ride the reliable
    FIFO tunnels exactly as a simulated session's do.  A {e bridged}
    call owns one end plus an unbound {e proxy} box standing in for the
    end that lives in the peer daemon: the call's driver ships every
    frame its real end emits over the {!Wire} bridge, and the daemon
    hands arriving wire signals to {!receive}, which injects them at the
    real end.  Synthetic proxy-side trace events around each crossing
    keep one daemon's recording a complete two-sided tunnel history for
    the Fig. 5 monitor.  The call keeps that monitor itself: the daemon
    {!step}s it with each drained trace entry on the call's channel.

    Box names derive from the call id the same way in both daemons
    ([L:<id>] initiates, [R:<id>] accepts), so either side's verdict
    speaks about the same path. *)

open Mediactl_core
open Mediactl_runtime
open Mediactl_obs

(** A bridged role carries the call's way onto its wire connection: it
    sends a frame and answers [true], or answers [false] once the
    connection is gone, dropping the frame. *)
type role =
  | Local_call  (** both ends here *)
  | Origin of (Wire.frame -> bool)
      (** left end here, right end proxied to the dialed daemon *)
  | Acceptor of (Wire.frame -> bool)
      (** right end here, left end proxied to the dialing daemon *)

type t

val create :
  make_driver:(Netsys.t -> Timed.t) ->
  id:string ->
  role:role ->
  left:Semantics.end_kind ->
  right:Semantics.end_kind ->
  t
(** Build the call's boxes and channel as a network of its own, wrap it
    in [make_driver] (the daemon's wall-clock driver), and engage the
    locally owned end(s). *)

val driver : t -> Timed.t
val torn : t -> bool

val receive : t -> tun:int -> Mediactl_types.Signal.t -> unit
(** Inbound, on a bridged call: record the proxy's send and inject the
    signal at the real end (compute latency [c] applies; the network
    transit already happened on the wire). *)

(** {1 Control operations} *)

val hold : t -> unit
val resume : t -> unit

val teardown : t -> unit
(** Rebind every locally owned end to a closeslot and record the call
    as torn.  The daemon tears a call down on [TEARDOWN] (then sending
    [Bye] for a bridged one), and a bridged call also on the peer's
    [Bye] and when the bridge is lost. *)

(** {1 Observation} *)

val flowing : t -> Netsys.t -> bool
(** On the call's network — a [Timed.when_true] predicate over
    {!driver}.  Local call: the paper's [bothFlowing] over both end
    slots.  Bridged: the local end is in Fig. 5 state Flowing. *)

val closed : t -> Netsys.t -> bool

val step : t -> Trace.Packed.t -> int -> unit
(** Step the call's monitor by entry [i] of a drained segment; the
    daemon passes every entry that names the call's channel. *)

val status_line : t -> string
(** The [CALL <id> <role> <kinds> <states> <verdict>] status-response
    line.  The verdict judges the call's obligation on its monitor, with
    any shipped signals whose proxy-side receive is still pending
    stepped as received onto a copy. *)
