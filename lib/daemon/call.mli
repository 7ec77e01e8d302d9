(** One call inside a daemon: a two-box, one-channel signaling path in
    the daemon's shared network, with a goal object engaged at each
    locally owned end.

    A {e local} call owns both ends.  A {e bridged} call owns one end
    plus an unbound {e proxy} box standing in for the end that lives in
    the peer daemon: the daemon ships frames addressed to the proxy
    over the {!Wire} bridge ({!ship}) and injects arriving wire
    signals at the real end ({!receive}), emitting synthetic proxy-side
    trace events around each crossing so one daemon's recording holds a
    complete two-sided tunnel history for the Fig. 5 monitor.  The call
    keeps that monitor itself: the daemon {!step}s it with each drained
    trace entry on the call's channel.

    Box names derive from the call id the same way in both daemons
    ([L:<id>] initiates, [R:<id>] accepts), so either side's verdict
    speaks about the same path. *)

open Mediactl_core
open Mediactl_runtime
open Mediactl_obs

type role =
  | Local_call  (** both ends here *)
  | Origin  (** left end here, right end proxied to the dialed daemon *)
  | Acceptor  (** right end here, left end proxied to the dialing daemon *)

type t

val make :
  id:string -> role:role -> left:Semantics.end_kind -> right:Semantics.end_kind -> t

val install : Timed.t -> t -> t
(** Add the call's boxes and channel to the shared network and engage
    the locally owned end(s). *)

val id : t -> string
val chan : t -> string
val role : t -> role
val torn : t -> bool

val local_box : t -> string
val proxy_box : t -> string option
val local_kind : t -> Semantics.end_kind

(** {1 Bridge crossings} *)

val ship : t -> send:(Wire.frame -> unit) -> Timed.frame -> unit
(** Outbound: record the frame's arrival at the proxy and hand the
    {!Wire} frame to [send].  Called by the daemon's impairment hook,
    which then delivers no local copy. *)

val receive : Timed.t -> t -> tun:int -> frame_id:int -> Mediactl_types.Signal.t -> unit
(** Inbound: record the proxy's send and inject the signal at the real
    end (compute latency [c] applies; the network transit already
    happened on the wire). *)

(** {1 Control operations} *)

val hold : Timed.t -> t -> unit
val resume : Timed.t -> t -> unit

val teardown : Timed.t -> t -> unit
(** Rebind every locally owned end to a closeslot and record the call
    as torn; for a bridged call the caller also sends [Bye]. *)

val on_bye : Timed.t -> t -> unit
(** The peer daemon tore the call down: close the local end. *)

(** {1 Observation} *)

val flowing : t -> Netsys.t -> bool
(** Local call: the paper's [bothFlowing] over both end slots.
    Bridged: the local end is in Fig. 5 state Flowing. *)

val closed : t -> Netsys.t -> bool

val obligation : t -> Monitor.obligation
(** The section V obligation for the call's current end kinds. *)

val ends : t -> Monitor.ends

val step : t -> Trace.Packed.t -> int -> unit
(** Step the call's monitor by entry [i] of a drained segment; the
    daemon passes every entry that names the call's channel. *)

val verdict : t -> Monitor.verdict
(** The call's obligation judged on its monitor, with any shipped
    signals whose proxy-side receive is still pending stepped as
    received onto a copy. *)

val status_line : Netsys.t -> t -> string
(** The [CALL <id> <role> <kinds> <states> <verdict>] status-response
    line. *)
