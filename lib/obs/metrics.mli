(** Per-run metrics aggregated from a captured trace.

    Counters and latency histograms (built on
    {!Mediactl_sim.Stats.histogram}) over one simulation run: signal
    round-trips, open races, retransmissions, time-to-[bothFlowing].
    [mediactl_sim --metrics out.json] writes the {!to_json} form. *)

type t = {
  events : int;
  duration : float;  (** span of the trace in simulated ms *)
  sends_by_signal : (string * int) list;  (** by descending count, ties by signal name *)
  recvs : int;
  slot_transitions : int;
  goal_changes : int;
  open_races : int;  (** crossing-[open] occurrences (from the monitor) *)
  drops : int;
  dups : int;  (** network-layer duplications *)
  retransmissions : int;
  retries_exhausted : int;
  dup_suppressed : int;  (** receiver-side dedup + reorder discards *)
  acks : int;
  round_trip : Mediactl_sim.Stats.t;
      (** per tunnel, first [open] send to the matching [oack] receipt, ms *)
  time_to_flowing : Mediactl_sim.Stats.t;
      (** per tunnel, trace start to both sides Flowing, ms *)
  violations : int;  (** protocol violations the monitor found *)
}

val of_packed : Trace.Packed.t -> t
(** The metrics of a capture, scanning through the {!Trace.Packed}
    field accessors so no per-event records are built. *)

val of_packed_report : Monitor.report -> Trace.Packed.t -> t
(** [of_packed_report (Monitor.replay_packed p) p] is [of_packed p]: a
    caller that has already run the monitor over [p] passes its report
    instead of replaying the trace again. *)

(** {2 Per-session registries}

    A fleet computes one {!t} per session from that session's own trace,
    then folds them into an aggregate: counters add, latency samples
    pool (so percentiles are over all sessions), and [duration] sums to
    total simulated milliseconds across sessions.  [sends_by_signal]
    of a merge is ordered by descending count, ties by signal name, so
    it does not depend on the order registries were merged in. *)

val empty : t

(** The one merge implementation: a running accumulator that registries
    are added to one at a time, without re-copying what it already
    holds.  Latency samples are appended in ascending order
    ({!Mediactl_sim.Stats.append}). *)
module Acc : sig
  type metrics := t
  type t

  val create : unit -> t
  val add : t -> metrics -> unit

  val finish : t -> metrics
  (** The merged registry.  It shares the accumulator's sample stores,
      so add nothing to the accumulator afterwards. *)
end

val merge : t -> t -> t
(** [merge a b] is [merge_all [a; b]]. *)

val merge_all : t list -> t
(** A fold of {!Acc.add} over the list, in order. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> string
(** One JSON object; histograms use 8 equal-width bins. *)

val write_json : string -> t -> unit
