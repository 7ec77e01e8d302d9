(* churn-10k: a steady-state population of 10,000 resident path
   sessions under Poisson arrivals and exponential holding times
   through [Fleet.churn] at jobs 1.  The same runtime layers as
   fleet-mixed, used differently: residents stay in [Spool] slots
   across the run, so the live heap is large and major-GC marking and
   the per-session footprint dominate; the network is lossless, so
   [Reliable] is bypassed and the net metrics must read clean. *)

open Mediactl_runtime
module Scenario = Mediactl_apps.Scenario
module Trace = Mediactl_obs.Trace
module Rng = Mediactl_sim.Rng
module Spans = Harness.Spans

let name = "churn-10k"
let mean_holding = 4_000.0
let session_until = 60_000.0
let grace = 30_000.0
let mk ~id ~rng = Scenario.churn_session Scenario.Path ~id ~rng

(* At full size one [Fleet.churn] call — the repetition — holds 10,000
   residents for 1,000 simulated ms (about 12,500 sessions) and takes
   about 2.5 s. *)
let target (ctx : Harness.ctx) = if ctx.smoke then 200 else 10_000
let horizon (ctx : Harness.ctx) = if ctx.smoke then 400.0 else 1_000.0

let churn ~target ~horizon ~seed =
  Fleet.churn ~jobs:1 ~session_until ~grace ~target_population:target ~mean_holding
    ~duration:horizon ~seed mk

(* Set-up is a warm-up churn at a hundredth of the population: small,
   because a fresh process growing its heap is what a loaded host slows
   most and least predictably. *)
let setup (ctx : Harness.ctx) =
  ignore
    (churn ~target:(target ctx / 100) ~horizon:(horizon ctx) ~seed:(Harness.derive ctx.seed (-1)))

(* The session streams of one [Fleet.churn] call, in id order, drawn
   exactly as [Fleet.churn] draws them: the prefilled population's
   splits, then one split per Poisson arrival before the horizon. *)
let streams ~target ~horizon ~seed =
  let rate = float_of_int target /. mean_holding in
  let root = Rng.create seed in
  let acc = ref [] in
  for _ = 1 to target do
    acc := Rng.split root :: !acc
  done;
  let t = ref (Rng.exponential root ~mean:(1.0 /. rate)) in
  while !t < horizon do
    acc := Rng.split root :: !acc;
    t := !t +. Rng.exponential root ~mean:(1.0 /. rate)
  done;
  Array.of_list (List.rev !acc)

(* The traced pass runs the first measured churn again with a span
   around the whole [Fleet.churn] call and one around every factory
   call inside it; its digest must equal the untraced one.  What the
   sessions themselves cost inside that call is measured by a probe
   pass: the same population launched through [Session.launch] and then
   retired through [Session.retire] from the suite's own loop (whose
   XOR digest must also match), a twin per session for the set-up
   share, and the analyses re-timed on each retired trace.  The
   protocol kernel is launch plus retirement less set-up and analysis;
   what [Fleet.churn] spends beyond its sessions' own work stays with
   the runtime layer, split into the per-session outcome digest it
   computes at retirement ([churn.digest_pct], re-timed here) and the
   rest — the arrival wheel, the slot pool, accounting, collection of
   the resident heap ([churn.orchestration_pct]). *)
let traced (ctx : Harness.ctx) sp ~untraced_rate ~expect_digest =
  let target = target ctx and horizon = horizon ctx and seed = Harness.derive ctx.seed 0 in
  let t0 = Harness.now_ns () in
  let summary =
    Spans.within sp "runtime.churn" (fun () ->
        Fleet.churn ~jobs:1 ~session_until ~grace ~target_population:target ~mean_holding
          ~duration:horizon ~seed (fun ~id ~rng ->
            Spans.within sp ~sid:id "apps.create" (fun () -> mk ~id ~rng)))
  in
  let wall = Harness.secs_since t0 in
  (* the probe pass *)
  let main = streams ~target ~horizon ~seed in
  let n = Array.length main in
  let launch_s = Array.make n 0.0 and retire_s = Array.make n 0.0 in
  let launched =
    Array.mapi
      (fun i rng ->
        ignore (Rng.exponential rng ~mean:mean_holding);
        let s = mk ~id:i ~rng in
        let (events, setup), dt = Probe.timed (fun () -> Session.launch ~until:session_until s) in
        launch_s.(i) <- dt;
        (s, events, setup))
      main
  in
  let outcomes =
    Array.mapi
      (fun i (s, setup_events, setup) ->
        let o, dt = Probe.timed (fun () -> Session.retire ~grace ~setup ~setup_events s) in
        retire_s.(i) <- dt;
        o)
      launched
  in
  let twins = streams ~target ~horizon ~seed in
  let kinds = Probe.kind_table () in
  let setup_sum = ref 0.0 and kernel_sum = ref 0.0 and events = ref 0 in
  let m_s = ref 0.0 and mon_s = ref 0.0 and j_s = ref 0.0 and entries = ref 0 in
  let digest = Bytes.make 16 '\000' and buf = Buffer.create 4096 and digest_s = ref 0.0 in
  Array.iteri
    (fun i (o : Session.outcome) ->
      let d, dt = Probe.timed (fun () -> Probe.digest_outcome buf o) in
      Probe.xor_into digest d;
      digest_s := !digest_s +. dt;
      ignore (Rng.exponential twins.(i) ~mean:mean_holding);
      let twin = mk ~id:i ~rng:twins.(i) in
      let judge = Session.judge twin in
      let setup_s = Probe.twin_setup_s twin in
      let a = Probe.analyse ~judge o.Session.trace in
      let kernel_s =
        Float.max 0.0 (launch_s.(i) +. retire_s.(i) -. setup_s -. Probe.analysis_s a)
      in
      Probe.kind_add kinds o ~setup_s ~kernel_s;
      setup_sum := !setup_sum +. setup_s;
      kernel_sum := !kernel_sum +. kernel_s;
      events := !events + o.Session.events;
      m_s := !m_s +. a.Probe.metrics_s;
      mon_s := !mon_s +. a.Probe.monitor_s;
      j_s := !j_s +. a.Probe.judge_s;
      entries := !entries + Trace.Packed.length o.Session.trace)
    outcomes;
  let rows =
    Harness.reassign (Spans.self_by_layer sp) ~from:"runtime" ~to_:"obs" (!m_s +. !mon_s +. !j_s)
  in
  let rows = Harness.reassign rows ~from:"runtime" ~to_:"kernel" !kernel_sum in
  let ledger =
    {
      Harness.wall_s = wall;
      lanes = 1;
      rows;
      overhead_pct =
        100.0 *. (Harness.ratio untraced_rate (Harness.per_s summary.Fleet.c_retired wall) -. 1.0);
    }
  in
  let runtime_s = Option.value ~default:0.0 (List.assoc_opt "runtime" rows) in
  let create_s, _ = Spans.total sp "apps.create" in
  let probe_digest = Digest.to_hex (Bytes.to_string digest) in
  let values =
    Harness.ledger_values ledger ~spans:(Spans.length sp)
    @ [
        ("churn.digest_pct", 100.0 *. Harness.ratio !digest_s wall);
        ( "churn.orchestration_pct",
          100.0 *. Harness.ratio (runtime_s -. !setup_sum -. !digest_s) wall );
        ("session.creates_per_s", Harness.per_s n create_s);
        ("session.setups_per_s", Harness.per_s n !setup_sum);
        ("session.launches_per_s", Harness.per_s n (Harness.sum (Array.to_list launch_s)));
        ("session.retires_per_s", Harness.per_s n (Harness.sum (Array.to_list retire_s)));
        ("kernel.events_per_s", Harness.per_s !events !kernel_sum);
        ("obs.trace_entries_per_session", Harness.ratio (float_of_int !entries) (float_of_int n));
        ("obs.metrics_per_s", Harness.per_s n !m_s);
        ("obs.monitor_per_s", Harness.per_s n !mon_s);
        ("obs.judge_per_s", Harness.per_s n !j_s);
      ]
    @ Probe.kind_metrics kinds
  in
  let digests_agree =
    String.equal summary.Fleet.c_digest expect_digest && String.equal probe_digest expect_digest
  in
  ( ledger,
    values,
    Harness.check "traced pass reproduces the untraced digest" digests_agree
      (Printf.sprintf "%d sessions: traced churn %s, launch/retire probe %s, untraced %s" n
         summary.Fleet.c_digest probe_digest expect_digest) )

let run _host (ctx : Harness.ctx) =
  setup ctx;
  let target = target ctx and horizon = horizon ctx in
  let summaries = ref [] in
  let t0 = Harness.now_ns () in
  let reps =
    Harness.repeat ~t0 ~seconds:ctx.seconds (fun r ->
        summaries := churn ~target ~horizon ~seed:(Harness.derive ctx.seed r) :: !summaries)
  in
  let measured_s = Harness.secs_since t0 in
  let peak_mb = Harness.peak_rss_mb () in
  let summaries = List.rev !summaries in
  let first = List.hd summaries in
  let total f = List.fold_left (fun acc s -> acc + f s) 0 summaries in
  let totalf f = Harness.sum (List.map f summaries) in
  let med f = Harness.median (List.map f summaries) in
  let retired = total (fun s -> s.Fleet.c_retired) in
  let events = total (fun s -> s.Fleet.c_engine_events) in
  let failed =
    total (fun s ->
        max (s.Fleet.c_retired - s.Fleet.c_conformant) (s.Fleet.c_retired - s.Fleet.c_satisfied))
  in
  let unretired = total (fun s -> s.Fleet.c_started - s.Fleet.c_retired) in
  let untraced_rate = med (fun s -> s.Fleet.c_sessions_per_s) in
  let e2e =
    [
      ("throughput_per_s", untraced_rate);
      ("latency_ms", 1000.0 *. med (fun s -> s.Fleet.c_wall_s));
      ("peak_rss_mb", peak_mb);
    ]
  in
  let net = Probe.net_acc () in
  List.iter (fun s -> Probe.net_add net s.Fleet.c_metrics) summaries;
  let gc f = med (fun s -> f s.Fleet.c_gc) in
  let untraced_layer =
    [
      ("fleet.events_per_s", Harness.per_s events (totalf (fun s -> s.Fleet.c_wall_s)));
      ("kernel.events_per_session", Harness.ratio (float_of_int events) (float_of_int retired));
      ( "gc.minor_words_per_event",
        Harness.ratio (totalf (fun s -> s.Fleet.c_gc.Fleet.minor_words)) (float_of_int events) );
      ( "gc.promoted_words_per_event",
        Harness.ratio (totalf (fun s -> s.Fleet.c_gc.Fleet.promoted_words)) (float_of_int events)
      );
      ("churn.peak_resident", med (fun s -> float_of_int s.Fleet.c_peak_resident));
      ("churn.pool_slots", med (fun s -> float_of_int s.Fleet.c_pool_slots));
      ( "churn.minor_words_per_session",
        med (fun s -> Harness.ratio s.Fleet.c_gc.Fleet.minor_words (float_of_int s.Fleet.c_started))
      );
      ("churn.major_collections", gc (fun g -> float_of_int g.Fleet.major_collections));
      ("churn.pause_ratio", gc (fun g -> Harness.ratio g.Fleet.max_pause_s g.Fleet.max_batch_s));
      ("churn.pause_batches", gc (fun g -> float_of_int g.Fleet.pause_batches));
    ]
    @ Probe.net_metrics net ~sessions:retired
  in
  let checks =
    [
      Harness.check "sessions conformant and satisfied" (failed = 0)
        (Printf.sprintf "%d of %d retired sessions failed" failed retired);
      Harness.check "every started session retired" (unretired = 0)
        (Printf.sprintf "%d started but not retired" unretired);
      Harness.check "lossless network: nothing dropped or retransmitted"
        (net.Probe.drops = 0 && net.Probe.retrans = 0)
        (Printf.sprintf "%d drops, %d retransmissions" net.Probe.drops net.Probe.retrans);
    ]
  in
  let ledger, per_layer, checks =
    match ctx.spans with
    | None -> (None, [], checks)
    | Some sp ->
      let ledger, values, c =
        traced ctx sp ~untraced_rate ~expect_digest:first.Fleet.c_digest
      in
      (Some ledger, untraced_layer @ values, checks @ [ c ])
  in
  {
    Harness.workload = name;
    seed = ctx.seed;
    measured_s;
    reps;
    attempted = retired;
    failed;
    checks;
    digest = first.Fleet.c_digest;
    e2e;
    per_layer;
    ledger;
    view =
      [
        ("sessions_per_s", untraced_rate, "1/s");
        ("events_per_s", Harness.per_s events (totalf (fun s -> s.Fleet.c_wall_s)), "1/s");
        ("peak_rss_mb", peak_mb, "MB");
      ];
    notes =
      [
        Printf.sprintf "target %d resident, horizon %.0f ms, mean holding %.0f ms, jobs 1" target
          horizon mean_holding;
      ];
  }

let workload = { Harness.name; setup; run }
