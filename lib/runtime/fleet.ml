open Mediactl_sim
open Mediactl_obs

type summary = {
  sessions : int;
  jobs : int;
  wall_s : float;
  engine_events : int;
  sessions_per_s : float;
  events_per_s : float;
  metrics : Metrics.t;
  conformant : int;
  violations : int;
  satisfied : int;
  violated : int;
  undetermined : int;
}

(* Block-cyclic shard assignment.  Plain round-robin ([i mod jobs])
   resonates with anything periodic in the id sequence: the [Mixed]
   scenario assigns the scenario kind by [id mod 5], so with [jobs]
   sharing a factor with the period one shard would collect all the
   expensive collab-tv sessions and the others would idle.  Walking
   ids in blocks breaks the resonance while staying cost-blind and
   independent of anything but [(jobs, sessions)]; the block is capped
   so small fleets still spread over all shards. *)
let shard_block ~jobs ~sessions =
  if jobs <= 1 then 1 else Stdlib.max 1 (Stdlib.min 8 (sessions / (2 * jobs)))

let shard_of ~jobs ~sessions i = i / shard_block ~jobs ~sessions mod jobs

(* What both loops count of their sessions' outcomes: one tally over
   the id-sorted outcomes in [run], one per shard in [churn]. *)
type tally = {
  mutable t_sessions : int;
  mutable t_events : int;
  mutable t_conformant : int;
  mutable t_violations : int;
  mutable t_satisfied : int;
  mutable t_violated : int;
  mutable t_undetermined : int;
  t_metrics : Metrics.t;
}

let tally () =
  {
    t_sessions = 0;
    t_events = 0;
    t_conformant = 0;
    t_violations = 0;
    t_satisfied = 0;
    t_violated = 0;
    t_undetermined = 0;
    t_metrics = Metrics.create ();
  }

let count t (o : Session.outcome) =
  t.t_sessions <- t.t_sessions + 1;
  t.t_events <- t.t_events + o.Session.events;
  if o.Session.conformant then t.t_conformant <- t.t_conformant + 1;
  t.t_violations <- t.t_violations + o.Session.violations;
  (match o.Session.verdict with
  | Some Monitor.Satisfied -> t.t_satisfied <- t.t_satisfied + 1
  | Some (Monitor.Violated _) -> t.t_violated <- t.t_violated + 1
  | Some (Monitor.Undetermined _) -> t.t_undetermined <- t.t_undetermined + 1
  | None -> ());
  Metrics.add t.t_metrics o.Session.metrics

let absorb into t =
  into.t_sessions <- into.t_sessions + t.t_sessions;
  into.t_events <- into.t_events + t.t_events;
  into.t_conformant <- into.t_conformant + t.t_conformant;
  into.t_violations <- into.t_violations + t.t_violations;
  into.t_satisfied <- into.t_satisfied + t.t_satisfied;
  into.t_violated <- into.t_violated + t.t_violated;
  into.t_undetermined <- into.t_undetermined + t.t_undetermined;
  Metrics.add into.t_metrics t.t_metrics

(* [shard k ()] for every shard [k], each on its own domain (the calling
   one when [jobs = 1]), with the wall time they took together; results
   in shard order. *)
let on_shards jobs shard =
  let t0 = Unix.gettimeofday () in
  let results =
    if jobs = 1 then [ shard 0 () ]
    else
      let domains = Array.init jobs (fun k -> Domain.spawn (shard k)) in
      Array.to_list (Array.map Domain.join domains)
  in
  (results, Unix.gettimeofday () -. t0)

let per_s wall_s n = if wall_s > 0.0 then float_of_int n /. wall_s else 0.0

(* Sessions are assigned to shards block-cyclically by id.  Because
   every session's stream is split from the root generator up front —
   in id order, before any shard runs — and sessions share no mutable
   state, the per-session outcomes are identical whatever [jobs] is;
   only the wall-clock figures change.  The outcomes are tallied in id
   order, so the pooled samples' sums do not depend on [jobs] either. *)
let run ?(jobs = 1) ?until ~sessions ~seed mk =
  if sessions < 0 then invalid_arg "Fleet.run: negative session count";
  if jobs < 1 then invalid_arg "Fleet.run: jobs must be at least 1";
  let root = Rng.create seed in
  let streams = Array.make (max sessions 1) root in
  for i = 0 to sessions - 1 do
    streams.(i) <- Rng.split root
  done;
  let shard k () =
    let acc = ref [] in
    for i = sessions - 1 downto 0 do
      if shard_of ~jobs ~sessions i = k then
        acc := Session.run ?until (mk ~id:i ~rng:streams.(i)) :: !acc
    done;
    !acc
  in
  let per_shard, wall_s = on_shards jobs shard in
  let outcomes =
    List.concat per_shard
    |> List.sort (fun (a : Session.outcome) b -> compare a.Session.id b.Session.id)
  in
  let t = tally () in
  List.iter (count t) outcomes;
  ( outcomes,
    {
      sessions;
      jobs;
      wall_s;
      engine_events = t.t_events;
      sessions_per_s = per_s wall_s sessions;
      events_per_s = per_s wall_s t.t_events;
      metrics = t.t_metrics;
      conformant = t.t_conformant;
      violations = t.t_violations;
      satisfied = t.t_satisfied;
      violated = t.t_violated;
      undetermined = t.t_undetermined;
    } )

let pp_summary ppf s =
  let ttf = s.metrics.Metrics.time_to_flowing in
  Format.fprintf ppf
    "@[<v>fleet       %d session(s) on %d domain(s) in %.3f s@,\
     throughput  %.1f sessions/s, %.0f events/s (%d engine events)@,\
     to-flowing  %s@,\
     monitor     %d/%d conformant, %d violation(s)%s@]"
    s.sessions s.jobs s.wall_s s.sessions_per_s s.events_per_s s.engine_events
    (if Stats.count ttf = 0 then "(no samples)"
     else
       Printf.sprintf "n=%d p50=%.1f ms p95=%.1f ms max=%.1f ms" (Stats.count ttf)
         (Stats.percentile ttf 0.5) (Stats.percentile ttf 0.95) (Stats.max ttf))
    s.conformant s.sessions s.violations
    (if s.satisfied + s.violated + s.undetermined = 0 then ""
     else
       Printf.sprintf "; obligations %d satisfied / %d violated / %d undetermined" s.satisfied
         s.violated s.undetermined)

(* ------------------------------------------------------------------ *)
(* Churn: steady-state populations under arrival/hangup turnover.

   The whole arrival schedule is drawn on the calling domain before
   any shard runs: ids [0 .. target-1] arrive at t = 0 (the pre-filled
   steady state), later ids at cumulative exponential inter-arrivals
   from the root stream, each id's private stream split off in id
   order — so, exactly as in [run], a session's outcome is a pure
   function of [(id, stream)] and the fleet digest is independent of
   [jobs].  Each shard then drives its own timeline, a {!Pqueue} of
   arrival and hangup ticks: an arrival draws the session's holding
   time from the session stream (before [mk] consumes it, fixing the
   draw order), launches the session, and parks it in a pooled slot;
   the hangup tick retires it — teardown bracket, metrics, monitor,
   digest — into the shard's tally and digest and recycles the slot.
   Nothing per-session survives retirement except the tally's counts,
   so memory tracks the peak resident population, not the total
   arrivals. *)

type cell = {
  mutable cl_session : Session.t option;
  mutable cl_setup : Trace.Packed.t;
  mutable cl_setup_events : int;
}

let fresh_cell () = { cl_session = None; cl_setup = Trace.Packed.empty; cl_setup_events = 0 }

let clear_cell cl =
  cl.cl_session <- None;
  cl.cl_setup <- Trace.Packed.empty;
  cl.cl_setup_events <- 0

(* [%.6f] for the digest header: an end time on a whole millisecond,
   where simulated clocks mostly stop, prints exactly as its integer and
   ".000000"; anything else goes through [Printf]. *)
let add_fixed6 b x =
  if Float.is_integer x && x < 1e15 && not (Float.sign_bit x) then begin
    Buffer.add_string b (string_of_int (int_of_float x));
    Buffer.add_string b ".000000"
  end
  else Printf.bprintf b "%.6f" x

(* The digest's scratch, one per domain and kept across calls.  A
   session's rendered outcome runs to a few KB, past the 256 words a
   minor-heap block may hold, so a fresh buffer, or the string
   [Buffer.contents] would copy out of it, goes straight to the major
   heap on every retirement.  [sc_bytes] holds the bytes MD5 reads. *)
type scratch = { sc_buf : Buffer.t; mutable sc_bytes : Bytes.t }

let scratch_key =
  Domain.DLS.new_key (fun () -> { sc_buf = Buffer.create 4096; sc_bytes = Bytes.create 4096 })

(* One MD5 per retired session over the {e resolved} outcome — decoded
   event JSON, never raw intern ids, which are domain-history artifacts
   — then XOR-combined.  XOR is commutative, so the fleet digest does
   not depend on retirement interleaving or shard count: the property
   E16 and the CI smoke assert across [jobs]. *)
let digest_outcome (o : Session.outcome) =
  let sc = Domain.DLS.get scratch_key in
  let buf = sc.sc_buf in
  Buffer.clear buf;
  Buffer.add_string buf (string_of_int o.Session.id);
  Buffer.add_char buf ':';
  Buffer.add_string buf o.Session.scenario;
  Buffer.add_char buf ':';
  Buffer.add_string buf (string_of_int o.Session.events);
  Buffer.add_char buf ':';
  add_fixed6 buf o.Session.end_time;
  Buffer.add_char buf ':';
  Buffer.add_string buf (if o.Session.conformant then "ok" else "bad");
  Buffer.add_string buf (string_of_int o.Session.violations);
  (match o.Session.verdict with
  | None -> Buffer.add_string buf ":-"
  | Some Monitor.Satisfied -> Buffer.add_string buf ":S"
  | Some (Monitor.Violated m) ->
    Buffer.add_string buf ":V";
    Buffer.add_string buf m
  | Some (Monitor.Undetermined m) ->
    Buffer.add_string buf ":U";
    Buffer.add_string buf m);
  (* The header and the event lines are newline-separated: the JSONL
     body's final newline is not hashed. *)
  if Trace.Packed.length o.Session.trace > 0 then begin
    Buffer.add_char buf '\n';
    Trace.Packed.add_jsonl buf o.Session.trace;
    Buffer.truncate buf (Buffer.length buf - 1)
  end;
  let len = Buffer.length buf in
  if Bytes.length sc.sc_bytes < len then
    sc.sc_bytes <- Bytes.create (Stdlib.max len (2 * Bytes.length sc.sc_bytes));
  Buffer.blit buf 0 sc.sc_bytes 0 len;
  Digest.subbytes sc.sc_bytes 0 len

(* Digest.t is a 16-byte string; XOR it into the accumulator. *)
let digest_xor acc (d : string) =
  for i = 0 to 15 do
    Bytes.unsafe_set acc i
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get acc i) lxor Char.code (String.unsafe_get d i)))
  done

let digest outcomes =
  let acc = Bytes.make 16 '\000' in
  List.iter (fun o -> digest_xor acc (digest_outcome o)) outcomes;
  Digest.to_hex (Bytes.to_string acc)

type gc_report = {
  minor_words : float;  (** allocated in minor heaps, summed over shards *)
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  heap_words : int;  (** shared major heap at end of run *)
  top_heap_words : int;  (** shared major heap peak *)
  max_pause_s : float;
  max_batch_s : float;
  pause_batches : int;
}

type churn_summary = {
  c_target : int;
  c_jobs : int;
  c_duration : float;
  c_mean_holding : float;
  c_wall_s : float;
  c_started : int;
  c_retired : int;
  c_peak_resident : int;
  c_pool_slots : int;
  c_engine_events : int;
  c_events_per_s : float;
  c_sessions_per_s : float;
  c_digest : string;
  c_metrics : Metrics.t;
  c_conformant : int;
  c_violations : int;
  c_satisfied : int;
  c_violated : int;
  c_undetermined : int;
  c_gc : gc_report;
}

(* Timeline ticks are packed into one immediate int — bit 0 tags the
   shape, the rest carries the payload — so the churn timeline itself
   allocates nothing per scheduled event, the same discipline
   [Signal_pack] applies to signal words. *)
let tick_arrive i = i lsl 1
let tick_hangup slot = (slot lsl 1) lor 1

(* Bounding the drain keeps the timed window tight: the t = 0 prefill
   puts the whole initial population at one key, and timing it as a
   single batch would report seconds of mutator work as a "pause". *)
let churn_batch = 64

(* Per-shard GC-pause accounting, a flat mutable record rather than
   three refs: the drain loop updates fields in place and allocates
   nothing per batch. *)
type pause_acct = {
  mutable pa_max_pause : float;
  mutable pa_max_batch : float;
  mutable pa_pause_batches : int;
}

(* What one shard hands back to the combiner. *)
type shard_report = {
  sr_tally : tally;
  sr_started : int;
  sr_digest : Bytes.t;
  sr_peak : int;
  sr_slots : int;
  sr_minor : float;
  sr_promoted : float;
  sr_pauses : pause_acct;
}

let collections () =
  let g =
    (Gc.quick_stat ()
    [@lint.allow
      "alloc: one stat record per timed batch (two per [churn_batch] = 64 events); the \
       pause accounting is the point of E17 and its cost is O(1/batch), not per-event"])
  in
  g.Gc.minor_collections + g.Gc.major_collections

(* The steady-state drain, hoisted to top level and rooted for
   ALLOC001: work items arrive as packed immediate ints and are handed
   to [dispatch] — a closure parameter, so arrival/retirement code is
   charged to its own E15 phase, not to the drain loop. *)
let rec drain_timeline timeline scratch acct dispatch =
  if not (Pqueue.is_empty timeline) then begin
    Vec.clear scratch;
    let n = Pqueue.drain_due timeline ~max:churn_batch scratch in
    let c0 = collections () in
    let t0 =
      (Unix.gettimeofday ()
      [@lint.allow "alloc: one boxed float per timed batch, same O(1/batch) budget as [collections]"])
    in
    for j = 0 to n - 1 do
      dispatch (Vec.get scratch j)
    done;
    let dt =
      (Unix.gettimeofday ()
      [@lint.allow "alloc: one boxed float per timed batch, same O(1/batch) budget as [collections]"])
      -. t0
    in
    if collections () > c0 then begin
      if dt > acct.pa_max_pause then acct.pa_max_pause <- dt;
      acct.pa_pause_batches <- acct.pa_pause_batches + 1
    end
    else if dt > acct.pa_max_batch then acct.pa_max_batch <- dt;
    drain_timeline timeline scratch acct dispatch
  end
[@@lint.hotpath]

let churn ?(jobs = 1) ?arrival_rate ?(session_until = 60_000.0) ?(grace = 30_000.0)
    ~target_population ~mean_holding ~duration ~seed mk =
  if target_population < 0 then invalid_arg "Fleet.churn: negative target population";
  if jobs < 1 then invalid_arg "Fleet.churn: jobs must be at least 1";
  if mean_holding <= 0.0 then invalid_arg "Fleet.churn: mean holding time must be positive";
  if duration < 0.0 then invalid_arg "Fleet.churn: negative duration";
  let rate =
    match arrival_rate with
    | Some r ->
      if r < 0.0 then invalid_arg "Fleet.churn: negative arrival rate";
      r
    | None -> float_of_int target_population /. mean_holding
  in
  (* The plan: arrival time and private stream per session id. *)
  let root = Rng.create seed in
  let ats = Vec.create () in
  let streams = Vec.create () in
  for _ = 1 to target_population do
    Vec.push ats 0.0;
    Vec.push streams (Rng.split root)
  done;
  if rate > 0.0 && duration > 0.0 then begin
    let t = ref (Rng.exponential root ~mean:(1.0 /. rate)) in
    while !t < duration do
      Vec.push ats !t;
      Vec.push streams (Rng.split root);
      t := !t +. Rng.exponential root ~mean:(1.0 /. rate)
    done
  end;
  let total = Vec.length ats in
  let shard k () =
    (* The words window opens before the arrival prefill and reads this
       domain's own counters: [Gc.quick_stat]'s word totals cover every
       domain, so summing its per-shard deltas would count each word
       once per shard. *)
    let minor0, promoted0, _ = Gc.counters () in
    let timeline = Pqueue.create () in
    let seqr = ref 0 in
    for i = 0 to total - 1 do
      if shard_of ~jobs ~sessions:total i = k then begin
        Pqueue.insert timeline ~key:(Vec.get ats i) ~seq:!seqr (tick_arrive i);
        incr seqr
      end
    done;
    let pool = Spool.create ~make:fresh_cell ~clear:clear_cell () in
    let t = tally () in
    let digest = Bytes.make 16 '\000' in
    let started = ref 0 in
    let retire_slot slot =
      let cl = Spool.get pool slot in
      (match cl.cl_session with
      | None -> ()
      | Some s ->
        let o = Session.retire ~grace ~setup:cl.cl_setup ~setup_events:cl.cl_setup_events s in
        count t o;
        digest_xor digest (digest_outcome o));
      Spool.release pool slot
    in
    let scratch = Vec.create () in
    let acct = { pa_max_pause = 0.0; pa_max_batch = 0.0; pa_pause_batches = 0 } in
    (* Named [on_tick], not [dispatch]: the callgraph resolves
       same-file names syntactically, so reusing the [drain_timeline]
       parameter's name would alias this function into the hot
       reachable set and defeat the closure boundary. *)
    let on_tick w =
      if w land 1 = 1 then retire_slot (w asr 1)
      else begin
        let i = w asr 1 in
        let rng = Vec.get streams i in
        (* Holding time first: the draw order on the session stream
           must not depend on what [mk] consumes. *)
        let holding = Rng.exponential rng ~mean:mean_holding in
        let s = mk ~id:i ~rng in
        let slot, cl = Spool.acquire pool in
        let ev, setup = Session.launch ~until:session_until s in
        cl.cl_session <- Some s;
        cl.cl_setup <- setup;
        cl.cl_setup_events <- ev;
        incr started;
        let hang = Vec.get ats i +. holding in
        if hang < duration then begin
          Pqueue.insert timeline ~key:hang ~seq:!seqr (tick_hangup slot);
          incr seqr
        end
        (* else: still resident at the horizon; the final drain
           below retires it. *)
      end
    in
    drain_timeline timeline scratch acct on_tick;
    Spool.iter_live (fun slot _ -> retire_slot slot) pool;
    let minor1, promoted1, _ = Gc.counters () in
    {
      sr_tally = t;
      sr_started = !started;
      sr_digest = digest;
      sr_peak = Spool.peak pool;
      sr_slots = Spool.capacity pool;
      sr_minor = minor1 -. minor0;
      sr_promoted = promoted1 -. promoted0;
      sr_pauses = acct;
    }
  in
  (* Collections are process-wide: one delta around all the shards. *)
  let g0 = Gc.quick_stat () in
  let reports, wall_s = on_shards jobs shard in
  let g_end = Gc.quick_stat () in
  let t = tally () in
  let digest = Bytes.make 16 '\000' in
  List.iter
    (fun r ->
      absorb t r.sr_tally;
      digest_xor digest (Bytes.to_string r.sr_digest))
    reports;
  let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
  let sumf f = List.fold_left (fun a r -> a +. f r) 0.0 reports in
  let maxf f = List.fold_left (fun a r -> Float.max a (f r)) 0.0 reports in
  {
    c_target = target_population;
    c_jobs = jobs;
    c_duration = duration;
    c_mean_holding = mean_holding;
    c_wall_s = wall_s;
    c_started = sum (fun r -> r.sr_started);
    c_retired = t.t_sessions;
    c_peak_resident = sum (fun r -> r.sr_peak);
    c_pool_slots = sum (fun r -> r.sr_slots);
    c_engine_events = t.t_events;
    c_events_per_s = per_s wall_s t.t_events;
    c_sessions_per_s = per_s wall_s t.t_sessions;
    c_digest = Digest.to_hex (Bytes.to_string digest);
    c_metrics = t.t_metrics;
    c_conformant = t.t_conformant;
    c_violations = t.t_violations;
    c_satisfied = t.t_satisfied;
    c_violated = t.t_violated;
    c_undetermined = t.t_undetermined;
    c_gc =
      {
        minor_words = sumf (fun r -> r.sr_minor);
        promoted_words = sumf (fun r -> r.sr_promoted);
        minor_collections = g_end.Gc.minor_collections - g0.Gc.minor_collections;
        major_collections = g_end.Gc.major_collections - g0.Gc.major_collections;
        heap_words = g_end.Gc.heap_words;
        top_heap_words = g_end.Gc.top_heap_words;
        max_pause_s = maxf (fun r -> r.sr_pauses.pa_max_pause);
        max_batch_s = maxf (fun r -> r.sr_pauses.pa_max_batch);
        pause_batches = sum (fun r -> r.sr_pauses.pa_pause_batches);
      };
  }

let pp_churn_summary ppf s =
  Format.fprintf ppf
    "@[<v>churn       target %d resident, %d started / %d retired on %d domain(s)@,\
     horizon     %.0f ms simulated (mean holding %.0f ms), %.3f s wall@,\
     resident    peak %d session(s) in %d pooled slot(s)@,\
     throughput  %.1f sessions/s, %.0f events/s (%d engine events)@,\
     gc          %.2e minor words (%d minor / %d major collections), heap %d words (peak \
     %d)@,\
     pauses      max %.3f ms over %d collecting batch(es); max quiet batch %.3f ms@,\
     monitor     %d/%d conformant, %d violation(s)%s@,\
     digest      %s@]"
    s.c_target s.c_started s.c_retired s.c_jobs s.c_duration s.c_mean_holding s.c_wall_s
    s.c_peak_resident s.c_pool_slots s.c_sessions_per_s s.c_events_per_s s.c_engine_events
    s.c_gc.minor_words s.c_gc.minor_collections s.c_gc.major_collections s.c_gc.heap_words
    s.c_gc.top_heap_words
    (s.c_gc.max_pause_s *. 1000.0)
    s.c_gc.pause_batches
    (s.c_gc.max_batch_s *. 1000.0)
    s.c_conformant s.c_retired s.c_violations
    (if s.c_satisfied + s.c_violated + s.c_undetermined = 0 then ""
     else
       Printf.sprintf "; obligations %d satisfied / %d violated / %d undetermined"
         s.c_satisfied s.c_violated s.c_undetermined)
    s.c_digest
