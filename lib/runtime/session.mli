(** A first-class call session: one scenario's network, timed driver,
    goal programs, and private random stream, bundled so that many
    sessions can run — sequentially or sharded across domains by
    {!Fleet} — without sharing any mutable state.

    A session is built from a network {e thunk} and a [boot] closure
    rather than a live network: everything that emits signals (the
    untimed settle of a prebuilt topology, goal engagement, impairment
    attachment, program launch) runs inside the session's own trace
    recording, so the captured trace is complete from the first [open]
    and the Fig. 5 conformance monitor can replay it from scratch.

    Determinism: the engine draws nothing, and all in-scenario draws
    come from the session's stream, so a session's outcome is a pure
    function of its [(id, rng)] pair — the property {!Fleet} relies on
    to make results independent of the domain count. *)

open Mediactl_sim
open Mediactl_obs

type t

val create :
  ?n:float ->
  ?c:float ->
  ?hangup:(t -> unit) ->
  ?judge:Monitor.judgement ->
  id:int ->
  scenario:string ->
  rng:Rng.t ->
  boot:(t -> unit) ->
  (unit -> Netsys.t) ->
  t
(** [create ~id ~scenario ~rng ~boot make] bundles a session.  [make]
    builds (and, if it likes, untimed-settles) the starting network;
    [boot] then engages goals, attaches impairment, or launches box
    programs against the live driver ({!sim} is valid from [boot]
    onward).  The build stays deferred into the recording bracket:
    {!run} and {!launch} call [make] inside it, before the driver's
    clock is observed, so its entries carry the bracket's reset clock.
    [make] may therefore return a start it settled earlier on the same
    domain, provided it {!Trace.replay}s the entries that settle
    recorded: the trace is then byte for byte a fresh build's, which
    is how the application scenarios share their settled starts.
    [hangup], if given, is the teardown counterpart of [boot], run by
    {!retire} at the start of the second recording bracket (typically
    re-engaging the path goals to [Close_end]).
    [judge], if given, is the temporal obligation the captured trace is
    judged against; the verdict comes from the same monitor run as the
    outcome's report and metrics.  [n] and [c] are passed to
    {!Timed.create}. *)

val id : t -> int
val scenario : t -> string

val rng : t -> Rng.t
(** The session's private stream; scenario code should draw all its
    randomness here. *)

val sim : t -> Timed.t
(** The live driver.  @raise Invalid_argument before {!run} (or
    {!boot_external}) installs it. *)

val judge : t -> (Trace.Packed.t -> Monitor.verdict) option
(** The obligation given at {!create} as a judge of a whole trace (it
    runs the monitor over the trace it is given), for callers that
    drive the session externally and must evaluate the verdict
    themselves. *)

val boot_external : t -> make_driver:(Netsys.t -> Timed.t) -> Timed.t
(** [boot_external t ~make_driver] runs the session on an engine the
    {e caller} owns: builds the session's network, wraps it in the
    driver [make_driver] returns — typically
    [Timed.create_external ~now ~schedule] over a wall-clock event
    loop — installs it as {!sim}, and runs the boot closure against it.
    The same boot closure therefore runs unchanged on the simulated or
    the wall clock.  The caller drives the loop to completion and owns
    trace recording and verdict evaluation (see {!judge}); a session is
    still single-use.  @raise Invalid_argument if already running. *)

(** Everything observable about one finished session.  [events] counts
    engine events processed; [violations] is the monitor's count (also
    folded into [metrics]); [verdict] is the judge's, when a judge was
    given.  Pure data — safe to ship across domains and to compare for
    the fleet determinism guarantee. *)
type outcome = {
  id : int;
  scenario : string;
  events : int;
  end_time : float;
  trace : Trace.Packed.t;
  metrics : Metrics.t;
  conformant : bool;
  violations : int;
  verdict : Monitor.verdict option;
}

val run : ?until:float -> ?max_events:int -> t -> outcome
(** Build, boot, and drive the session to quiescence (or to the bound),
    recording its trace into the domain-local ring buffer
    ({!Trace.recording_packed}); then derive metrics and monitor
    results through the packed accessors: {!launch}, then the analysis
    {!retire} ends with.  A session is single-use: a second [run]
    raises [Invalid_argument].  [run] does not execute the [hangup]
    closure — use the phased {!launch}/{!retire} pair for churned
    lifecycles. *)

(** {2 Phased lifecycle (churn)}

    A churned session is {e resident} between two recording brackets
    on its owning domain: {!launch} captures the setup segment and
    leaves the session quiescent (its engine queue empty, so it emits
    nothing while other sessions record on the same domain);
    {!retire} later opens the second bracket, runs the [hangup]
    closure, drives the teardown to quiescence, and joins the two
    segments with {!Trace.Packed.append} into one outcome.  The
    outcome is the same pure function of [(id, rng)] as {!run}'s, so
    churn results stay independent of the domain count. *)

val launch : ?until:float -> ?max_events:int -> t -> int * Trace.Packed.t
(** Build, boot, and drive to quiescence (or the bound) inside the
    first recording bracket; returns the engine events processed and
    the captured setup segment.  The session stays live — {!sim}
    remains valid — until {!retire}. *)

val retire :
  ?grace:float ->
  ?max_events:int ->
  setup:Trace.Packed.t ->
  setup_events:int ->
  t ->
  outcome
(** [retire ~setup ~setup_events t] opens the second recording
    bracket on the session launched earlier: runs the [hangup]
    closure, drives at most [grace] further simulated milliseconds
    (default 30000) to let the close handshakes quiesce, appends the
    teardown segment to [setup], and derives the combined outcome.
    @raise Invalid_argument if the session was never launched. *)

val pp_outcome : Format.formatter -> outcome -> unit
