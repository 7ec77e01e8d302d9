(* fleet-mixed: batches of short-lived sessions through [Fleet.run] at
   jobs 1, the five-kind [Scenario.Mixed] pool over a 5%-loss network
   with the reliability layer attached.  Every session is built, run to
   quiescence, analysed and dropped, so the live heap stays tiny and
   the time goes to construction, the protocol kernel, [Reliable] and
   analysis — the layers the traced pass separates. *)

open Mediactl_runtime
module Scenario = Mediactl_apps.Scenario
module Trace = Mediactl_obs.Trace
module Rng = Mediactl_sim.Rng
module Spans = Harness.Spans

let name = "fleet-mixed"
let loss = 0.05
let until = 60_000.0
let mk ~id ~rng = Scenario.session ~loss Scenario.Mixed ~id ~rng

(* A repetition is [batches] calls of [Fleet.run] over [batch]
   sessions, each batch seeded [derive seed k] for its running index
   [k]; at full size one repetition takes about a second. *)
let batch (ctx : Harness.ctx) = if ctx.smoke then 40 else 1024
let batches (ctx : Harness.ctx) = if ctx.smoke then 2 else 4

let run_batch ~sessions ~seed =
  let g0 = Gc.quick_stat () in
  let t0 = Harness.now_ns () in
  let outcomes, summary = Fleet.run ~jobs:1 ~until ~sessions ~seed mk in
  let wall = Harness.secs_since t0 in
  let g1 = Gc.quick_stat () in
  ( outcomes,
    summary,
    wall,
    g1.Gc.minor_words -. g0.Gc.minor_words,
    g1.Gc.promoted_words -. g0.Gc.promoted_words )

(* Set-up is a warm-up batch an eighth the size of a measured one, on
   a seed no measured batch uses: it reaches every scenario kind, so
   interning tables and the code are warm, while keeping the fresh
   heap's first growth, which a loaded host makes slow and erratic,
   out of the set-up time. *)
let setup (ctx : Harness.ctx) =
  ignore
    (Fleet.run ~jobs:1 ~until ~sessions:(batch ctx / 8) ~seed:(Harness.derive ctx.seed (-1)) mk)

(* The traced pass re-runs the first measured batch one session at a
   time from the suite's own loop, with a span around the factory call
   and one around [Session.run]; it must reproduce that batch's digest.
   A probe pass then splits each run: a twin built from an identical
   stream and run to zero events gives the set-up share, re-timing the
   three analyses on the captured trace gives the obs share, and the
   rest of the run is the protocol kernel. *)
let traced (ctx : Harness.ctx) sp ~untraced_rate ~expect_digest =
  let n = batch ctx in
  let streams () =
    let root = Rng.create (Harness.derive ctx.seed 0) in
    Array.init n (fun _ -> Rng.split root)
  in
  let main = streams () in
  let t0 = Harness.now_ns () in
  let outcomes =
    Array.init n (fun i ->
        Spans.within sp ~sid:i "bench.session" (fun () ->
            let s = Spans.within sp "apps.create" (fun () -> mk ~id:i ~rng:main.(i)) in
            Spans.within sp "runtime.run" (fun () -> Session.run ~until s)))
  in
  let wall = Harness.secs_since t0 in
  let run_s = Spans.durations_by_sid sp "runtime.run" ~sessions:n in
  let twins = streams () in
  let kinds = Probe.kind_table () in
  let setup_sum = ref 0.0 and kernel_sum = ref 0.0 and events = ref 0 in
  let m_s = ref 0.0 and mon_s = ref 0.0 and j_s = ref 0.0 and judged = ref 0 in
  let entries = ref 0 in
  Array.iteri
    (fun i (o : Session.outcome) ->
      let twin = mk ~id:i ~rng:twins.(i) in
      let judge = Session.judge twin in
      let setup_s = Probe.twin_setup_s twin in
      let a = Probe.analyse ~judge o.Session.trace in
      let kernel_s = Float.max 0.0 (run_s.(i) -. setup_s -. Probe.analysis_s a) in
      Probe.kind_add kinds o ~setup_s ~kernel_s;
      setup_sum := !setup_sum +. setup_s;
      kernel_sum := !kernel_sum +. kernel_s;
      events := !events + o.Session.events;
      m_s := !m_s +. a.Probe.metrics_s;
      mon_s := !mon_s +. a.Probe.monitor_s;
      j_s := !j_s +. a.Probe.judge_s;
      if Option.is_some judge then incr judged;
      entries := !entries + Trace.Packed.length o.Session.trace)
    outcomes;
  let obs_sum = !m_s +. !mon_s +. !j_s in
  let rows = Harness.reassign (Spans.self_by_layer sp) ~from:"runtime" ~to_:"obs" obs_sum in
  let rows = Harness.reassign rows ~from:"runtime" ~to_:"kernel" !kernel_sum in
  let ledger =
    {
      Harness.wall_s = wall;
      lanes = 1;
      rows;
      overhead_pct = 100.0 *. (Harness.ratio untraced_rate (Harness.per_s n wall) -. 1.0);
    }
  in
  let create_s, _ = Spans.total sp "apps.create" in
  let digest = Probe.digest_of (Array.to_list outcomes) in
  let values =
    Harness.ledger_values ledger ~spans:(Spans.length sp)
    @ [
        ("session.creates_per_s", Harness.per_s n create_s);
        ("session.setups_per_s", Harness.per_s n !setup_sum);
        ("kernel.events_per_s", Harness.per_s !events !kernel_sum);
        ("obs.trace_entries_per_session", Harness.ratio (float_of_int !entries) (float_of_int n));
        ("obs.metrics_per_s", Harness.per_s n !m_s);
        ("obs.monitor_per_s", Harness.per_s n !mon_s);
        ("obs.judge_per_s", Harness.per_s !judged !j_s);
      ]
    @ Probe.kind_metrics kinds
  in
  ( ledger,
    values,
    Harness.check "traced pass reproduces the untraced digest"
      (String.equal (Digest.to_hex digest) expect_digest)
      (Printf.sprintf "batch 0: traced %s, untraced %s" (Digest.to_hex digest) expect_digest) )

let run _host (ctx : Harness.ctx) =
  setup ctx;
  let n = batch ctx and per_rep = batches ctx in
  let batch_walls = ref [] and rep_rates = ref [] and digests = ref [] in
  let attempted = ref 0 and failed = ref 0 and short = ref 0 in
  let events = ref 0 and wall_sum = ref 0.0 and minor = ref 0.0 and promoted = ref 0.0 in
  let net = Probe.net_acc () in
  let t0 = Harness.now_ns () in
  let reps =
    Harness.repeat ~t0 ~seconds:ctx.seconds (fun r ->
        let rep_wall = ref 0.0 in
        for b = 0 to per_rep - 1 do
          let outcomes, summary, wall, mi, pr =
            run_batch ~sessions:n ~seed:(Harness.derive ctx.seed ((r * per_rep) + b))
          in
          rep_wall := !rep_wall +. wall;
          batch_walls := wall :: !batch_walls;
          attempted := !attempted + List.length outcomes;
          failed := !failed + List.length (List.filter (fun o -> not (Probe.session_ok o)) outcomes);
          if summary.Fleet.sessions <> n then incr short;
          events := !events + summary.Fleet.engine_events;
          wall_sum := !wall_sum +. wall;
          minor := !minor +. mi;
          promoted := !promoted +. pr;
          Probe.net_add net summary.Fleet.metrics;
          if r = 0 then digests := Digest.to_hex (Probe.digest_of outcomes) :: !digests
        done;
        rep_rates := Harness.per_s (n * per_rep) !rep_wall :: !rep_rates)
  in
  let measured_s = Harness.secs_since t0 in
  let peak_mb = Harness.peak_rss_mb () in
  let batch_digests = List.rev !digests in
  let untraced_rate = Harness.median !rep_rates in
  let e2e =
    [
      ("throughput_per_s", untraced_rate);
      ("latency_ms", 1000.0 *. Harness.median !batch_walls);
      ("peak_rss_mb", peak_mb);
    ]
  in
  let untraced_layer =
    [
      ("fleet.events_per_s", Harness.per_s !events !wall_sum);
      ("kernel.events_per_session", Harness.ratio (float_of_int !events) (float_of_int !attempted));
      ("gc.minor_words_per_event", Harness.ratio !minor (float_of_int !events));
      ("gc.promoted_words_per_event", Harness.ratio !promoted (float_of_int !events));
    ]
    @ Probe.net_metrics net ~sessions:!attempted
  in
  let checks =
    [
      Harness.check "sessions conformant and satisfied" (!failed = 0)
        (Printf.sprintf "%d of %d sessions failed" !failed !attempted);
      Harness.check "every batch ran its full size" (!short = 0)
        (Printf.sprintf "%d short batch(es) of %d" !short (reps * per_rep));
    ]
  in
  let ledger, per_layer, checks =
    match ctx.spans with
    | None -> (None, [], checks)
    | Some sp ->
      let ledger, values, c =
        traced ctx sp ~untraced_rate ~expect_digest:(List.hd batch_digests)
      in
      (Some ledger, untraced_layer @ values, checks @ [ c ])
  in
  {
    Harness.workload = name;
    seed = ctx.seed;
    measured_s;
    reps;
    attempted = !attempted;
    failed = !failed;
    checks;
    digest = Digest.to_hex (Digest.string (String.concat "" batch_digests));
    e2e;
    per_layer;
    ledger;
    view =
      [
        ("sessions_per_s", untraced_rate, "1/s");
        ("events_per_s", Harness.per_s !events !wall_sum, "1/s");
        ("peak_rss_mb", peak_mb, "MB");
      ];
    notes =
      [
        Printf.sprintf "%d sessions per batch, %d batches per rep, loss %.2f, jobs 1" n per_rep
          loss;
      ];
  }

let workload = { Harness.name; setup; run }
