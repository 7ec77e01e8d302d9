(** Per-run metrics aggregated from a captured trace.

    Counters and latency histograms (built on
    {!Mediactl_sim.Stats.histogram}) over one simulation run: signal
    round-trips, open races, retransmissions, time-to-[bothFlowing].
    [mediactl_sim --metrics out.json] writes the {!to_json} form. *)

type t = {
  mutable events : int;
  mutable duration : float;  (** span of the trace in simulated ms *)
  mutable sends_by_signal : (string * int) list;
      (** by descending count, ties by signal name *)
  mutable recvs : int;
  mutable slot_transitions : int;
  mutable goal_changes : int;
  mutable open_races : int;  (** crossing-[open] occurrences (from the monitor) *)
  mutable drops : int;
  mutable dups : int;  (** network-layer duplications *)
  mutable retransmissions : int;
  mutable retries_exhausted : int;
  mutable dup_suppressed : int;  (** receiver-side dedup + reorder discards *)
  mutable acks : int;
  round_trip : Mediactl_sim.Stats.t;
      (** per tunnel, first [open] send to the matching [oack] receipt, ms *)
  time_to_flowing : Mediactl_sim.Stats.t;
      (** per tunnel, trace start to both sides Flowing, ms *)
  mutable violations : int;  (** protocol violations the monitor found *)
}
(** One registry, whether it describes one trace or pools many. *)

val create : unit -> t
(** A fresh registry: every counter zero, no samples. *)

val of_packed : Trace.Packed.t -> t
(** The metrics of a capture, scanning through the {!Trace.Packed}
    field accessors so no per-event records are built. *)

val of_packed_report : Monitor.report -> Trace.Packed.t -> t
(** [of_packed_report (Monitor.replay_packed p) p] is [of_packed p]: a
    caller that has already run the monitor over [p] passes its report
    instead of replaying the trace again. *)

(** {2 Pooling registries}

    A fleet computes one {!t} per session from that session's own trace
    and adds it into a running registry: counters add, latency samples
    pool (so percentiles are over all sessions), and [duration] sums to
    total simulated milliseconds across sessions. *)

val add : t -> t -> unit
(** [add into m] adds [m] to [into].  Sends merge by signal name and
    stay ordered by descending count, ties by name, so the order
    registries are added in does not show.  [m]'s latency samples are
    appended in ascending order ({!Mediactl_sim.Stats.append}). *)

val merge_all : t list -> t
(** A fresh registry with every registry of the list {!add}ed, in
    order. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> string
(** One JSON object; histograms use 8 equal-width bins. *)

val write_json : string -> t -> unit
