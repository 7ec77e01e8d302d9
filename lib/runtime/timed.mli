(** The timed driver: runs a network under the discrete-event engine with
    the paper's two latency parameters (section VIII-C):

    - [c], the average time for a box to read a stimulus from an input
      queue and compute the next signal to send; and
    - [n], the average time for the network to accept a signal and
      deliver it to its destination box.

    A signal emitted in reaction to an event at time [T] therefore
    arrives at the next box at [T + c + n].  The paper's defaults are
    c = 20 ms and n = 34 ms, which make the Figure-13 convergence latency
    2n + 3c = 128 ms. *)

open Mediactl_types

type t

val create : ?n:float -> ?c:float -> Netsys.t -> t
(** [create net] wraps a network over a fresh {!Mediactl_sim.Engine}.
    Defaults: [n] = 34.0, [c] = 20.0 (milliseconds).  The driver keeps
    no log of its own: run it inside a
    {!Mediactl_obs.Trace.recording_packed} bracket (with {!observe}) to
    record what it delivers, and render the receive entries with
    {!Mediactl_obs.Trace.pp_msc}. *)

val create_external :
  now:(unit -> float) ->
  schedule:(delay:float -> (unit -> unit) -> unit) ->
  ?n:float ->
  ?c:float ->
  Netsys.t ->
  t
(** [create_external ~now ~schedule net] wraps a network over an
    {e external} engine — a clock and a one-shot timer facility owned by
    the caller, typically the wall-clock select loop of
    [Mediactl_daemon_core.Wallclock].  Every protocol event the driver would
    have put on the simulation queue is instead handed to [schedule] as
    a thunk to run when its delay (in the caller's time units,
    conventionally milliseconds) elapses.  The caller drives the loop:
    {!run} raises [Invalid_argument] on such a driver, and everything
    else ({!apply}, {!when_true}, {!set_impairment}...) behaves
    identically on either engine. *)

val net : t -> Netsys.t
val now : t -> float
val n : t -> float
val c : t -> float

val observe : t -> unit
(** Point the {!Mediactl_obs.Trace} clock at this driver's time, so
    trace events are stamped in its milliseconds.  Call it inside a
    [Trace.recording_packed] bracket, which resets the clock when it
    ends. *)

val apply : t -> (Netsys.t -> Netsys.t * Netsys.send list) -> unit
(** Perform a network operation at the current time; each signal it put
    into a tunnel is scheduled to arrive [c + n] later. *)

val apply_quiet : t -> (Netsys.t -> Netsys.t) -> unit
(** A network operation that sends nothing (topology changes, metas). *)

val at : t -> float -> (t -> unit) -> unit
(** Schedule a scripted action at an absolute time. *)

val after : t -> float -> (t -> unit) -> unit
(** Schedule a scripted action a delay from now. *)

val send_meta : t -> chan:string -> from:string -> Meta.t -> unit
(** Send a meta-signal; it is delivered (made visible to
    {!on_meta} subscribers) one network latency later. *)

val on_meta : t -> (t -> chan:string -> at:string -> Meta.t -> unit) -> unit
(** Register the handler invoked when a meta-signal arrives at a box. *)

val on_step : t -> (t -> unit) -> unit
(** Register a hook run after every event (used by box programs to
    evaluate their transition guards). *)

val when_true : t -> (Netsys.t -> bool) -> (float -> unit) -> unit
(** Fire the callback (once) at the first moment the predicate holds,
    checked after every event and at registration time. *)

val run : ?until:float -> ?max_events:int -> t -> int
(** Run the engine; returns events processed.  @raise Invalid_argument
    on an externally driven driver ({!create_external}), whose owning
    event loop runs it instead. *)

val error : t -> string option

(** {2 Network impairment}

    By default signals ride the reliable FIFO tunnels of {!Netsys}.  An
    installed impairment hook switches tunnel traffic to an explicit
    frame transport: every emission is immediately popped out of its
    tunnel ({!Netsys.take}) and becomes a [frame]; the hook decides its
    fate as a list of extra transit delays, one per delivered copy — so
    [[]] loses the frame, [[0.0]] delivers it exactly as the reliable
    path would, and [[0.0; 12.0]] duplicates it.  Frames are dispatched
    to the receiving slot with {!Netsys.inject} after the usual [n]
    transit (plus the copy's delay) and [c] compute.  Meta-signals are
    not impaired: they model channel-scoped control state, not per-frame
    datagrams.  The [mediactl.net] library builds loss, duplication,
    jitter, partition, and retransmission policies on these hooks. *)

type frame = { f_id : int; f_send : Netsys.send; f_signal : Mediactl_types.Signal.t }
(** One signal in flight under impairment.  Copies of a duplicated or
    retransmitted frame share the same [f_id]. *)

val set_impairment : t -> (t -> frame -> float list) -> unit
(** Install the impairment hook, called once per emitted frame; returns
    the transit-delay offsets of the copies to deliver (possibly none).
    Installing a hook affects only signals emitted afterwards. *)

val set_delivery_filter : t -> (t -> frame -> bool) -> unit
(** Install a receiver-side filter, consulted as each frame copy is
    about to be dispatched; returning [false] suppresses the dispatch
    (and the trace entry).  A reliability layer uses this to drop
    duplicate and out-of-order copies before the protocol sees them. *)

val inject_frame : t -> delay:float -> frame -> unit
(** Schedule a (re)delivery of a frame: it arrives at its destination
    after [delay] and its reaction commits [c] later.  Used by
    retransmission layers; the caller chooses [delay] (typically
    [n] plus jitter).  Negative delays are clamped to 0. *)
