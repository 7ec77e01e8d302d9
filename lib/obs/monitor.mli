(** Trace conformance checking (runtime verification).

    The monitor steps captured trace entries through an independent
    re-implementation of the Figure-5 media-channel state machine — it
    shares no code with [Mediactl_protocol.Slot] — and checks the
    [Lenabled]/[Renabled] protocol invariants plus the §V path
    obligations on the finite trace.  Verdicts are three-valued:
    satisfied, violated, or undetermined-at-cutoff, following the usual
    finite-trace LTL semantics of runtime verification.

    One monitor value serves both uses: {!run_packed} folds {!step}
    over a whole capture offline, and a live recorder (the daemon)
    keeps a monitor per call and steps it as segments drain.  Nothing
    is decided when a trace ends; {!report} and {!judge} read the
    machines as they stand, so a live monitor can be read again after
    more steps. *)

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

type t
(** The per-tunnel Fig. 5 machines of one trace so far. *)

val create : unit -> t
(** A monitor that has seen nothing. *)

val step : t -> Trace.Packed.t -> int -> unit
(** [step m p i] advances the machines by entry [i] of [p]: a signal
    entry steps its tunnel; other entries are ignored.  Violation
    messages name the entry by its {!Trace.Packed.seq}. *)

val observe : t -> Trace.event -> unit
(** [step] for a signal observation that is not in any capture (the
    daemon's pending proxy receives). *)

val copy : t -> t
(** An independent copy, to step speculatively. *)

val run_packed : Trace.Packed.t -> t
(** [step] over every entry of a capture, from {!create}. *)

val report : t -> report
(** Every tunnel seen, in order of first appearance.  Violations
    collect illegal sends, unexpected receives, signals from a third
    box on a tunnel, and inconsistent quiescent state pairs (e.g. one
    side stuck in [closing] because its [closeack] was lost). *)

val replay_packed : Trace.Packed.t -> report
(** [report (run_packed p)]. *)

val conformant : report -> bool
(** No violations anywhere in the trace. *)

(** {2 Path obligations}

    The four §V obligation shapes; [Mediactl_core.Semantics.spec] is
    this type. *)

type obligation =
  | Eventually_always_closed  (** [<>[] bothClosed] *)
  | Eventually_always_not_flowing  (** [<>[] !bothFlowing] *)
  | Always_eventually_flowing  (** [[]<> bothFlowing] *)
  | Closed_or_flowing  (** [(<>[] bothClosed) \/ ([]<> bothFlowing)] *)

type verdict = Satisfied | Violated of string | Undetermined of string

type ends = { left : string * string * int; right : string * string * int }
(** One leg's end slots, each as [(box, channel, tunnel)].  A two-ended
    path is a single leg; an N-party topology is a list of legs, one per
    participant. *)

type judgement = { structural : bool; obligation : obligation; legs : ends list }
(** An obligation as data: what {!judge} evaluates. *)

val judge : judgement -> t -> verdict
(** Evaluate an obligation on the finite trace the monitor has seen,
    quantified over N legs: the closed/flowing predicates are the
    conjunction over every leg's end pair (allClosed / allFlowing), so
    a conference is satisfied only when {e every} participant leg is.
    Any protocol violation ({!report}) violates the obligation.  A
    liveness obligation is decided only at a quiescent cutoff (no
    signal in flight on any tunnel), where infinite stuttering of the
    final state is the sole continuation the system itself would
    produce — the same terminal-state reading the model checker's
    [Temporal] module uses.  A non-quiescent cutoff yields
    [Undetermined].  [structural] weakens flowing to "both end states
    are Flowing" per leg, dropping the descriptor/selector agreement
    refinement — the form the model checker falls back to under loss
    budgets.  A two-ended path is the one-leg case. *)

val pp_verdict : Format.formatter -> verdict -> unit
val pp_report : Format.formatter -> report -> unit
