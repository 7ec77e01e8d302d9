(** The sharded many-session runtime.

    [run] drives [sessions] independent {!Session}s, partitioned
    block-cyclically by session id across [jobs] domains (see
    {!shard_of}), each shard running its sessions sequentially on its
    own event loop with its own domain-local trace context.

    {b Determinism.}  Every session's random stream is {!Rng.split}
    from the root seed up front, in id order, before any shard starts;
    sessions share no mutable state; and observability is domain-local.
    Per-session outcomes are therefore bit-identical whatever [jobs]
    is — [--jobs 1] and [--jobs 4] differ only in wall-clock throughput
    (a property the test suite asserts). *)

open Mediactl_sim
open Mediactl_obs

type summary = {
  sessions : int;
  jobs : int;
  wall_s : float;
  engine_events : int;  (** total engine events across all sessions *)
  sessions_per_s : float;
  events_per_s : float;
  metrics : Metrics.t;  (** every session's registry, pooled in id order *)
  conformant : int;  (** sessions whose trace the monitor accepts *)
  violations : int;  (** total monitor violations *)
  satisfied : int;  (** judged sessions whose obligation held *)
  violated : int;
  undetermined : int;  (** judged sessions cut off before quiescence *)
}

val shard_of : jobs:int -> sessions:int -> int -> int
(** The shard session [i] runs on: block-cyclic by id, not plain
    round-robin — [i mod jobs] resonates with periodic cost patterns
    in the id sequence (the mixed scenario assigns its kind by
    [id mod 5]), piling the expensive kind onto one shard.  Pure in
    [(jobs, sessions, i)], so tests can assert coverage and balance. *)

val run :
  ?jobs:int ->
  ?until:float ->
  sessions:int ->
  seed:int ->
  (id:int -> rng:Rng.t -> Session.t) ->
  Session.outcome list * summary
(** [run ~sessions ~seed mk] builds session [i] as
    [mk ~id:i ~rng:stream_i] inside its shard and runs them all;
    outcomes come back sorted by id.  [until] bounds each session
    individually.  Default [jobs] is 1. *)

val pp_summary : Format.formatter -> summary -> unit

val digest : Session.outcome list -> string
(** The fleet digest of a set of outcomes, in hex: one MD5 per session
    over its observable fields and its trace's JSONL, XOR-combined, so
    it ignores the order of the list.  {!churn}'s [c_digest] is the
    same digest over every retired session.

    Each session's fields and JSONL are written into a buffer the
    calling domain keeps, and hashed from a copy of the bytes that the
    domain also keeps, so in steady state a session costs its rendering
    and its MD5 and allocates no copy of its text.  The JSONL is
    cheapest for outcomes recorded on the calling domain, whose entries'
    lines that domain has rendered before (see
    {!Mediactl_obs.Trace.Packed.add_jsonl}); at [jobs > 1] the outcomes
    of {!run} were recorded on other domains and are rendered in full. *)

(** {2 Churn}

    [churn] holds a {e steady-state} population under continuous
    arrival/hangup turnover instead of running a fixed batch: session
    ids [0 .. target_population - 1] arrive at t = 0, later ids as a
    Poisson process (default rate [target_population /. mean_holding],
    the steady-state balance), and each session stays resident for an
    exponential holding time drawn from its own split stream.  A
    resident session lives in a pooled per-shard slot
    ({!Mediactl_runtime.Spool}); at hangup it is retired — teardown
    recording bracket, metrics, monitor, digest — into the shard's
    counts and its slot recycled, so memory tracks the peak
    resident population, not total arrivals.

    {b Determinism.}  The whole arrival plan and every per-session
    stream are drawn from the root seed on the calling domain before
    any shard runs, holding times are drawn from the session stream
    before the session constructor consumes it, and the per-session
    digests combine by XOR (commutative), so [c_digest] — and every
    per-session outcome behind it — is bit-identical whatever [jobs]
    is. *)

(** GC observation over the shards.  Word counts are each shard's
    domain-local [Gc.counters] delta, from before its arrival prefill
    to after its final drain, summed across shards.  Collection counts
    are one process-wide [Gc.quick_stat] delta around all the shards,
    since a collection in OCaml 5 involves every domain; heap figures
    describe the shared major heap.  [max_pause_s] is a {e proxy}, not a
    stop-the-world measurement: the wall time of the slowest
    [Pqueue.drain_due] batch (at most {!churn} batch size events)
    during which the collection count advanced — an upper bound that
    includes the batch's own mutator work, which [max_batch_s], the
    slowest collection-free batch, baselines. *)
type gc_report = {
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  heap_words : int;
  top_heap_words : int;
  max_pause_s : float;
  max_batch_s : float;
  pause_batches : int;  (** batches whose window saw a collection *)
}

type churn_summary = {
  c_target : int;
  c_jobs : int;
  c_duration : float;  (** churn horizon, simulated ms *)
  c_mean_holding : float;
  c_wall_s : float;
  c_started : int;
  c_retired : int;
  c_peak_resident : int;
      (** summed per-shard peaks — exact at [jobs = 1], an upper bound
          on the instantaneous global peak otherwise *)
  c_pool_slots : int;  (** pooled slots ever allocated, all shards *)
  c_engine_events : int;
  c_events_per_s : float;
  c_sessions_per_s : float;  (** retirements per wall second *)
  c_digest : string;  (** hex; independent of [jobs] *)
  c_metrics : Metrics.t;
  c_conformant : int;
  c_violations : int;
  c_satisfied : int;
  c_violated : int;
  c_undetermined : int;
  c_gc : gc_report;
}

val churn :
  ?jobs:int ->
  ?arrival_rate:float ->
  ?session_until:float ->
  ?grace:float ->
  target_population:int ->
  mean_holding:float ->
  duration:float ->
  seed:int ->
  (id:int -> rng:Rng.t -> Session.t) ->
  churn_summary
(** [churn ~target_population ~mean_holding ~duration ~seed mk] drives
    the workload described above for [duration] simulated ms of churn
    time; sessions still resident at the horizon are retired by a
    final drain.  [arrival_rate] (arrivals per simulated ms) overrides
    the steady-state default; [session_until] bounds each session's
    own setup clock (default 60000 ms) and [grace] its teardown
    (default 30000 ms, see {!Session.retire}).  [mk] is the same
    constructor shape {!run} takes; give it a hangup-capable session
    (see {!Session.create}) or retirement degrades to a bare cutoff. *)

val pp_churn_summary : Format.formatter -> churn_summary -> unit
