(** Trace conformance checking (runtime verification).

    The monitor replays a captured {!Trace.event} stream through an
    independent re-implementation of the Figure-5 media-channel state
    machine — it shares no code with [Mediactl_protocol.Slot] — and
    checks the [Lenabled]/[Renabled] protocol invariants plus the §V
    path obligations on the finite trace.  Verdicts are three-valued:
    satisfied, violated, or undetermined-at-cutoff, following the usual
    finite-trace LTL semantics of runtime verification. *)

type side_summary = {
  box : string;
  side_initiator : bool;
  final : string;  (** final Fig. 5 state name *)
  enabled_rx : bool;  (** the [Lenabled]-style receive-media mirror *)
  enabled_tx : bool;
}

type tunnel_report = {
  chan : string;
  tun : int;
  summaries : side_summary list;
  sends : int;
  recvs : int;
  races : int;  (** crossing-[open] occurrences observed *)
  quiescent : bool;  (** per direction, sends = receives at cutoff *)
  first_all_flowing : float option;  (** time all sides first reached Flowing *)
  tunnel_violations : string list;
}

type report = { tunnels : tunnel_report list; violations : string list }

val replay : Trace.event list -> report
(** Run every tunnel appearing in the trace through the Fig. 5 machine.
    Violations collect illegal sends, unexpected receives, and
    inconsistent quiescent state pairs (e.g. one side stuck in
    [closing] because its [closeack] was lost). *)

val replay_packed : Trace.Packed.t -> report
(** [replay] over a packed ring capture, reading signal entries through
    the flat {!Trace.Packed} accessors so no per-event records are
    materialized.  Produces the same report as
    [replay (Trace.Packed.to_events p)]. *)

val conformant : report -> bool
(** No violations anywhere in the trace. *)

(** {2 One run, several readings}

    {!replay_packed}, {!verdict_packed} and [Metrics.of_packed] each
    run the machines afresh.  A caller that needs all three for
    one trace — a session's analysis — runs them once with
    {!run_packed} and reads the report and every verdict off that
    run. *)

type machines
(** The finished per-tunnel machines of one trace. *)

val run_packed : Trace.Packed.t -> machines
val report : machines -> report
(** [report (run_packed p)] is [replay_packed p]. *)

(** {2 Path obligations}

    The four §V obligation shapes, matching
    [Mediactl_core.Semantics.spec]. *)

type obligation =
  | Eventually_always_closed  (** [<>[] bothClosed] *)
  | Eventually_always_not_flowing  (** [<>[] !bothFlowing] *)
  | Always_eventually_flowing  (** [[]<> bothFlowing] *)
  | Closed_or_flowing  (** [(<>[] bothClosed) \/ ([]<> bothFlowing)] *)

val obligation_to_string : obligation -> string

type verdict = Satisfied | Violated of string | Undetermined of string

type ends = { left : string * string * int; right : string * string * int }
(** One leg's end slots, each as [(box, channel, tunnel)].  A two-ended
    path is a single leg; an N-party topology is a list of legs, one per
    participant. *)

type judgement = { structural : bool; obligation : obligation; legs : ends list }
(** An obligation as data: what {!verdict_legs} evaluates, with its
    arguments. *)

val judge : judgement -> machines -> verdict
(** [judge j (run_packed p)] is
    [verdict_legs ~structural:j.structural j.obligation ~legs:j.legs
    (Trace.Packed.to_events p)], without materializing event records. *)

val verdict_legs :
  ?structural:bool -> obligation -> legs:ends list -> Trace.event list -> verdict
(** Evaluate an obligation on a finite trace, quantified over N legs:
    the closed/flowing predicates are the conjunction over every leg's
    end pair (allClosed / allFlowing), so a conference is satisfied only
    when {e every} participant leg is.  A liveness obligation is decided
    only at a quiescent cutoff (no signal in flight on any tunnel),
    where infinite stuttering of the final state is the sole
    continuation the system itself would produce — the same
    terminal-state reading the model checker's [Temporal] module uses.
    A non-quiescent cutoff yields [Undetermined].  [structural] weakens
    flowing to "both end states are Flowing" per leg, dropping the
    descriptor/selector agreement refinement — the form the model
    checker falls back to under loss budgets. *)

val verdict : ?structural:bool -> obligation -> ends:ends -> Trace.event list -> verdict
(** The historical two-sided form: [verdict ~ends] is
    [verdict_legs ~legs:[ends]]. *)

val verdict_packed :
  ?structural:bool -> obligation -> ends:ends -> Trace.Packed.t -> verdict
(** [verdict] over a packed ring capture; same result as
    [verdict ?structural obligation ~ends (Trace.Packed.to_events p)]
    without materializing event records. *)

val pp_verdict : Format.formatter -> verdict -> unit
val pp_tunnel_report : Format.formatter -> tunnel_report -> unit
val pp_report : Format.formatter -> report -> unit
