(* Tests for the sharded many-session runtime: split random streams,
   domain-local trace contexts, per-session metrics merging, and the
   fleet determinism guarantee (identical per-session results whatever
   the domain count). *)

open Mediactl_sim
open Mediactl_runtime
open Mediactl_apps
module Obs = Mediactl_obs

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

(* --- Rng.split -------------------------------------------------------- *)

(* A child stream is fixed at the moment of the split: consuming the
   parent or a sibling afterwards — in any amount — cannot change what
   the child produces.  This is what makes fleet sessions independent
   of shard assignment. *)
let prop_split_sibling_independent =
  QCheck2.Test.make ~name:"split streams ignore sibling consumption order" ~count:300
    QCheck2.Gen.(triple (int_range 0 1_000_000) (int_range 0 16) (int_range 1 16))
    (fun (seed, pre, post) ->
      let direct =
        let p = Rng.create seed in
        for _ = 1 to pre do
          ignore (Rng.next_int64 p)
        done;
        let child = Rng.split p in
        List.init 8 (fun _ -> Rng.next_int64 child)
      in
      let interleaved =
        let p = Rng.create seed in
        for _ = 1 to pre do
          ignore (Rng.next_int64 p)
        done;
        let child = Rng.split p in
        let sibling = Rng.split p in
        for _ = 1 to post do
          ignore (Rng.next_int64 p);
          ignore (Rng.next_int64 sibling)
        done;
        List.init 8 (fun _ -> Rng.next_int64 child)
      in
      direct = interleaved)

let prop_split_children_distinct =
  QCheck2.Test.make ~name:"sibling streams differ from each other and the parent" ~count:200
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let p = Rng.create seed in
      let a = Rng.split p in
      let b = Rng.split p in
      let draws r = List.init 4 (fun _ -> Rng.next_int64 r) in
      let da = draws a and db = draws b and dp = draws p in
      da <> db && da <> dp && db <> dp)

(* --- domain-local tracing --------------------------------------------- *)

(* Regression for the old global [Trace.seq] counter: two domains
   recording at the same time must each capture exactly their own
   events, numbered 0..n-1 by their own counter, with nothing leaked
   from the other domain. *)
let test_trace_domains_isolated () =
  let n = 2_000 in
  let started = Atomic.make 0 in
  let record tag () =
    Atomic.incr started;
    while Atomic.get started < 2 do
      Domain.cpu_relax ()
    done;
    let (), trace =
      Obs.Trace.recording_packed (fun () ->
        for i = 0 to n - 1 do
          Obs.Trace.emit (Obs.Trace.Meta_send { chan = tag; box = string_of_int i })
        done)
    in
    Obs.Trace.Packed.to_events trace
  in
  let da = Domain.spawn (record "left") in
  let db = Domain.spawn (record "right") in
  let ea = Domain.join da and eb = Domain.join db in
  let well_formed tag events =
    List.length events = n
    && List.for_all2
         (fun want (e : Obs.Trace.event) ->
           e.Obs.Trace.seq = want
           &&
           match e.Obs.Trace.kind with
           | Obs.Trace.Meta_send { chan; _ } -> chan = tag
           | _ -> false)
         (List.init n Fun.id) events
  in
  check tbool "left trace isolated" true (well_formed "left" ea);
  check tbool "right trace isolated" true (well_formed "right" eb)

(* --- metrics pooling ---------------------------------------------------- *)

let test_metrics_merge () =
  let stats xs =
    let s = Stats.create () in
    List.iter (Stats.add s) xs;
    s
  in
  let a = Obs.Metrics.create () in
  a.Obs.Metrics.events <- 3;
  a.Obs.Metrics.duration <- 10.0;
  a.Obs.Metrics.sends_by_signal <- [ ("open", 2); ("close", 1) ];
  a.Obs.Metrics.drops <- 1;
  Stats.append a.Obs.Metrics.round_trip (stats [ 1.0; 5.0 ]);
  let b = Obs.Metrics.create () in
  b.Obs.Metrics.events <- 4;
  b.Obs.Metrics.duration <- 7.0;
  b.Obs.Metrics.sends_by_signal <- [ ("open", 1) ];
  b.Obs.Metrics.violations <- 2;
  Stats.append b.Obs.Metrics.round_trip (stats [ 3.0 ]);
  let m = Obs.Metrics.merge_all [ a; b ] in
  check tint "events add" 7 m.Obs.Metrics.events;
  check tbool "duration adds" true (m.Obs.Metrics.duration = 17.0);
  check tint "drops add" 1 m.Obs.Metrics.drops;
  check tint "violations add" 2 m.Obs.Metrics.violations;
  check tbool "sends merge by signal" true
    (List.assoc "open" m.Obs.Metrics.sends_by_signal = 3
    && List.assoc "close" m.Obs.Metrics.sends_by_signal = 1);
  check tint "samples pool" 3 (Stats.count m.Obs.Metrics.round_trip);
  check tbool "pooled max" true (Stats.max m.Obs.Metrics.round_trip = 5.0);
  check tint "the pooled registries are left alone" 3 a.Obs.Metrics.events;
  check tbool "merge_all of nothing is empty" true
    (Obs.Metrics.merge_all [] = Obs.Metrics.create ())

(* Tied send counts must come out by signal name, not in whatever
   order the registries were added in: adding the same registries in
   another order, or in another grouping, gives the same list. *)
let test_metrics_merge_ties () =
  let reg sends =
    let m = Obs.Metrics.create () in
    m.Obs.Metrics.sends_by_signal <- sends;
    m
  in
  let a () = reg [ ("select", 2); ("open", 1) ]
  and b () = reg [ ("close", 2); ("closeack", 1) ]
  and c () = reg [ ("oack", 2); ("describe", 3) ] in
  let sends m = m.Obs.Metrics.sends_by_signal in
  let added into more =
    List.iter (Obs.Metrics.add into) more;
    into
  in
  let want =
    [ ("describe", 3); ("close", 2); ("oack", 2); ("select", 2); ("closeack", 1); ("open", 1) ]
  in
  let tsends = Alcotest.(list (pair string int)) in
  check tsends "merge_all a b c" want (sends (Obs.Metrics.merge_all [ a (); b (); c () ]));
  check tsends "merge_all c b a" want (sends (Obs.Metrics.merge_all [ c (); b (); a () ]));
  check tsends "add c into (add b into a)" want (sends (added (added (a ()) [ b () ]) [ c () ]));
  check tsends "add (add a into b) into c" want (sends (added (c ()) [ added (b ()) [ a () ] ]))

(* --- sessions ----------------------------------------------------------- *)

let test_session_sim_before_run () =
  let s =
    Session.create ~id:0 ~scenario:"x" ~rng:(Rng.create 1)
      ~boot:(fun _ -> ())
      (fun () -> Netsys.empty)
  in
  Alcotest.check_raises "sim before run"
    (Invalid_argument "Session.sim: session not running (only valid from boot onward)")
    (fun () -> ignore (Session.sim s))

(* --- fleet determinism -------------------------------------------------- *)

(* The acceptance property: per-session outcomes are bit-identical for
   --jobs 1, 2, and 4 — same traces, same metrics, same verdicts — over
   the mixed scenario set on a lossy network. *)
let fingerprint (o : Session.outcome) =
  ( o.Session.id,
    o.Session.scenario,
    o.Session.events,
    o.Session.end_time,
    o.Session.conformant,
    o.Session.violations,
    List.map Obs.Trace.event_to_json (Obs.Trace.Packed.to_events o.Session.trace),
    Obs.Metrics.to_json o.Session.metrics,
    match o.Session.verdict with
    | None -> "none"
    | Some v -> Format.asprintf "%a" Obs.Monitor.pp_verdict v )

let run_fleet jobs =
  let mk ~id ~rng = Scenario.session ~loss:0.04 Scenario.Mixed ~id ~rng in
  let outcomes, summary = Fleet.run ~jobs ~until:30_000.0 ~sessions:10 ~seed:7 mk in
  (List.map fingerprint outcomes, summary)

let test_fleet_determinism () =
  let f1, s1 = run_fleet 1 in
  let f2, _ = run_fleet 2 in
  let f4, _ = run_fleet 4 in
  check tint "all sessions ran" 10 (List.length f1);
  check tbool "jobs 1 = jobs 2" true (f1 = f2);
  check tbool "jobs 1 = jobs 4" true (f1 = f4);
  check tint "summary counts every session" 10 s1.Fleet.sessions;
  check tbool "aggregate events match outcomes" true
    (s1.Fleet.engine_events = List.fold_left (fun acc (_, _, e, _, _, _, _, _, _) -> acc + e) 0 f1)

(* The same acceptance property for the N-party conference mixer: each
   session is a star of [parties] legs judged N-way ([]<> allFlowing
   over every leg), and per-session outcomes stay bit-identical across
   job counts under loss. *)
let run_conf_fleet jobs =
  let mk ~id ~rng = Scenario.session ~loss:0.05 ~parties:4 Scenario.Conf ~id ~rng in
  let outcomes, _ = Fleet.run ~jobs ~until:30_000.0 ~sessions:9 ~seed:13 mk in
  List.map fingerprint outcomes

let test_conf_fleet_determinism () =
  let f1 = run_conf_fleet 1 in
  check tint "all sessions ran" 9 (List.length f1);
  List.iter
    (fun (_, _, _, _, conformant, _, _, _, verdict) ->
      check tbool "conf session conformant" true conformant;
      check (Alcotest.string) "conf session satisfied N-way" "satisfied" verdict)
    f1;
  check tbool "jobs 1 = jobs 2" true (f1 = run_conf_fleet 2);
  check tbool "jobs 1 = jobs 4" true (f1 = run_conf_fleet 4)

let test_fleet_shards_cover_all_ids () =
  let mk ~id ~rng = Scenario.session Scenario.Path ~id ~rng in
  let outcomes, _ = Fleet.run ~jobs:3 ~until:10_000.0 ~sessions:7 ~seed:3 mk in
  check tbool "ids 0..6 in order" true
    (List.map (fun (o : Session.outcome) -> o.Session.id) outcomes = List.init 7 Fun.id)

(* Block-cyclic sharding: with [jobs = 5] over the mixed scenario set
   (kind = id mod 5), plain round-robin would pin every copy of kind k
   onto shard k — the expensive kind lands on one domain.  The
   block-cyclic map must give every shard the same session count AND
   all five kinds. *)
let test_shard_balance () =
  let jobs = 5 and sessions = 200 in
  let tally = Array.make jobs 0 in
  let kinds = Array.make_matrix jobs 5 false in
  for i = 0 to sessions - 1 do
    let k = Fleet.shard_of ~jobs ~sessions i in
    check tbool "shard in range" true (0 <= k && k < jobs);
    tally.(k) <- tally.(k) + 1;
    kinds.(k).(i mod 5) <- true
  done;
  Array.iteri (fun k n -> check tint (Printf.sprintf "shard %d balanced" k) 40 n) tally;
  Array.iteri
    (fun k seen ->
      check tbool (Printf.sprintf "shard %d sees all five kinds" k) true
        (Array.for_all Fun.id seen))
    kinds

(* --- slot pool ---------------------------------------------------------- *)

(* A released slot's cell is physically reused by the next acquire —
   scrubbed, so nothing (trace entries, session state) leaks into the
   next occupant — and the pool never makes a cell it could recycle. *)
let test_spool_recycles () =
  let made = ref 0 in
  let pool =
    Spool.create
      ~make:(fun () ->
        incr made;
        ref [])
      ~clear:(fun cell -> cell := [])
      ()
  in
  let s0, c0 = Spool.acquire pool in
  let s1, c1 = Spool.acquire pool in
  c0 := [ "occupant0-trace" ];
  c1 := [ "occupant1-trace" ];
  check tint "two fresh cells" 2 !made;
  check tint "live" 2 (Spool.live pool);
  Spool.release pool s0;
  check tint "live after release" 1 (Spool.live pool);
  let s0', c0' = Spool.acquire pool in
  check tint "freed slot recycled" s0 s0';
  check tbool "cell physically reused" true (c0 == c0');
  check tbool "no trace entries leak into the next occupant" true (!c0' = []);
  check tint "recycle makes no new cell" 2 !made;
  check tint "peak tracks max live" 2 (Spool.peak pool);
  check tint "capacity = slots ever issued" 2 (Spool.capacity pool);
  let visited = ref [] in
  Spool.iter_live (fun slot _ -> visited := slot :: !visited) pool;
  check tbool "iter_live in slot order" true (List.rev !visited = List.sort compare [ s0'; s1 ])

(* --- packed trace append ------------------------------------------------ *)

(* Joining two recording brackets must read back exactly like one
   continuous recording: seq renumbered across the seam, the second
   segment's interned strings remapped (shared labels dedup into the
   first segment's table). *)
let test_packed_append () =
  let module T = Obs.Trace in
  let burst_a () =
    T.emit (T.Meta_send { chan = "ctrl"; box = "left" });
    T.emit (T.Slot_transition { slot = "s1"; from_ = "closed"; to_ = "open"; cause = "open" })
  in
  let burst_b () =
    T.emit (T.Meta_recv { chan = "ctrl"; box = "right" });
    T.emit (T.Goal { goal = "g"; slot = "s1"; from_ = "open"; to_ = "flowing" })
  in
  let (), a = T.recording_packed burst_a in
  let (), b = T.recording_packed burst_b in
  let joined = T.Packed.append a b in
  let (), whole =
    T.recording_packed (fun () ->
      burst_a ();
      burst_b ())
  in
  check tbool "append reads back as one continuous recording" true
    (List.map T.event_to_json (T.Packed.to_events joined)
    = List.map T.event_to_json (T.Packed.to_events whole));
  (* "ctrl" appears in both brackets; after the remap the two decoded
     events must share one interned string (physical equality). *)
  check tbool "shared strings dedup into one intern slot" true
    (match (T.Packed.kind joined 0, T.Packed.kind joined 2) with
    | T.Meta_send { chan = ca; _ }, T.Meta_recv { chan = cb; _ } -> ca == cb
    | _ -> false);
  check tbool "append onto empty is identity" true
    (T.Packed.append T.Packed.empty a == a && T.Packed.append a T.Packed.empty == a)

(* What a batch's traces hold, per entry: every word reachable from them
   — entries, timestamps, their string and signal tables, and the
   strings and signals themselves, counted once however many traces
   share them — over the number of entries.  A fleet keeps one trace
   per outcome, so this is most of a finished batch's heap. *)
let test_trace_words_per_entry () =
  let outcomes, _ =
    Fleet.run ~jobs:1 ~until:60_000.0 ~sessions:256 ~seed:100 (fun ~id ~rng ->
        Scenario.session ~loss:0.05 Scenario.Mixed ~id ~rng)
  in
  let traces = Array.of_list (List.map (fun o -> o.Session.trace) outcomes) in
  let entries = Array.fold_left (fun n t -> n + Obs.Trace.Packed.length t) 0 traces in
  let words = Obj.reachable_words (Obj.repr traces) - (Array.length traces + 1) in
  let per_entry = float_of_int words /. float_of_int entries in
  check tbool
    (Printf.sprintf "%d words for %d entries: %.2f words per entry, at most 3.2" words entries
       per_entry)
    true (per_entry <= 3.2)

(* --- churn -------------------------------------------------------------- *)

(* The churn acceptance property: interleaved create/retire with slot
   reuse yields per-session outcomes — rolled up in the XOR digest and
   the started/retired counts — independent of the job count. *)
let prop_churn_jobs_independent =
  QCheck2.Test.make ~name:"churn digest independent of job count" ~count:8
    QCheck2.Gen.(triple (int_range 8 40) (int_range 500 2_500) (int_range 0 10_000))
    (fun (pop, duration, seed) ->
      let mk ~id ~rng = Scenario.churn_session Scenario.Path ~id ~rng in
      let run jobs =
        let s =
          Fleet.churn ~jobs ~target_population:pop ~mean_holding:1_000.0
            ~duration:(float_of_int duration) ~seed mk
        in
        (s.Fleet.c_digest, s.Fleet.c_started, s.Fleet.c_retired, s.Fleet.c_conformant)
      in
      let r1 = run 1 in
      r1 = run 2 && r1 = run 3)

(* Every arrival is retired by the horizon drain, pooled slots track
   the peak population (not total arrivals), and a lossy mixed churn
   stays conformant under the reliability layer. *)
let test_churn_retires_everything () =
  let mk ~id ~rng = Scenario.churn_session ~loss:0.04 Scenario.Mixed ~id ~rng in
  let s =
    Fleet.churn ~jobs:2 ~target_population:30 ~mean_holding:800.0 ~duration:2_000.0 ~seed:5
      mk
  in
  let s4 =
    Fleet.churn ~jobs:4 ~target_population:30 ~mean_holding:800.0 ~duration:2_000.0 ~seed:5
      mk
  in
  check Alcotest.string "mixed pool (conferences included) digest independent of jobs"
    s.Fleet.c_digest s4.Fleet.c_digest;
  check tint "every arrival retired" s.Fleet.c_started s.Fleet.c_retired;
  check tbool "turnover happened" true (s.Fleet.c_started > 30);
  check tbool "slots recycled below total arrivals" true
    (s.Fleet.c_pool_slots < s.Fleet.c_started);
  check tbool "pool tracks peak population" true
    (s.Fleet.c_peak_resident <= s.Fleet.c_pool_slots);
  check tint "lossy mixed churn conformant" s.Fleet.c_retired s.Fleet.c_conformant

(* A churned conference hangs every leg up from both ends at
   retirement and is judged against the N-way §V disjunction; the
   digest must not move with the job count, and every retiree must
   satisfy it. *)
let test_conf_churn_jobs_independent () =
  let mk ~id ~rng = Scenario.churn_session ~loss:0.03 Scenario.Conf ~id ~rng in
  let run jobs =
    let s =
      Fleet.churn ~jobs ~target_population:20 ~mean_holding:900.0 ~duration:2_500.0 ~seed:9
        mk
    in
    (s.Fleet.c_digest, s.Fleet.c_started, s.Fleet.c_retired, s.Fleet.c_conformant,
     s.Fleet.c_satisfied)
  in
  let ((_, started, retired, conformant, satisfied) as r1) = run 1 in
  check tbool "jobs 1 = jobs 2" true (r1 = run 2);
  check tbool "jobs 1 = jobs 4" true (r1 = run 4);
  check tint "every arrival retired" started retired;
  check tint "lossy conf churn conformant" retired conformant;
  check tint "every retiree satisfied closed-or-flowing" retired satisfied

(* Each shard counts only its own domain's words, so the same churn
   split across two domains reports about the words it reports on one;
   the small excess is the second domain's own set-up. *)
let test_churn_minor_words_per_domain () =
  let minor jobs =
    let s =
      Fleet.churn ~jobs ~target_population:300 ~mean_holding:1_000.0 ~duration:1_000.0
        ~seed:13 (fun ~id ~rng -> Scenario.churn_session Scenario.Path ~id ~rng)
    in
    s.Fleet.c_gc.Fleet.minor_words
  in
  let m1 = minor 1 and m2 = minor 2 in
  check tbool
    (Printf.sprintf "jobs 2 reports %.0f minor words, jobs 1 %.0f (at most 1.15x)" m2 m1)
    true
    (m1 > 0.0 && m2 <= 1.15 *. m1)

(* --- shared starts --------------------------------------------------------- *)

(* One case per distinct start build, each run through the lifecycle
   its fleet uses: [Session.run] for a batch session, [launch] then
   [retire] for a churned one. *)
let start_cases =
  let name ?parties kind =
    Scenario.to_string kind ^ Option.fold ~none:"" ~some:string_of_int parties
  in
  let batch ?parties kind =
    (name ?parties kind, false, Scenario.session ~loss:0.05 ?parties kind)
  in
  let churned ?parties kind =
    (name ?parties kind ^ " churn", true, Scenario.churn_session ~loss:0.05 ?parties kind)
  in
  List.map batch
    Scenario.[ Path; Ctd; Prepaid; Collab_tv; Transfer; Barge; Moh ]
  @ [
      batch ~parties:2 Scenario.Conf;
      batch ~parties:3 Scenario.Conf;
      batch ~parties:4 Scenario.Conf;
      churned Scenario.Path;
      churned ~parties:2 Scenario.Conf;
      churned ~parties:4 Scenario.Conf;
    ]

(* The same session every time: identical id and stream. *)
let start_session (_, _, make) = make ~id:7 ~rng:(Rng.create 11)

(* A session's trace length and fleet digest. *)
let run_case ((_, churned, _) as case) =
  let s = start_session case in
  let o =
    if churned then begin
      let setup_events, setup = Session.launch ~until:60_000.0 s in
      Session.retire ~setup ~setup_events s
    end
    else Session.run ~until:60_000.0 s
  in
  (Obs.Trace.Packed.length o.Session.trace, Fleet.digest [ o ])

let on_fresh_domain f = Domain.join (Domain.spawn f)
let tresult = Alcotest.(pair int string)

(* The first session of a build on a domain settles its start; a later
   one replays it.  Their digests must agree byte for byte — per build
   on its own domain, and with every build on one domain, where a key
   that confused two builds would hand one build's start to the other
   (the conference roster sizes above). *)
let test_shared_start_cold_warm () =
  let cold = List.map (fun case -> on_fresh_domain (fun () -> run_case case)) start_cases in
  List.iter2
    (fun ((name, _, _) as case) want ->
      let warm =
        on_fresh_domain (fun () ->
            ignore (run_case case);
            run_case case)
      in
      check tresult (name ^ ": warm = cold") want warm)
    start_cases cold;
  let all_warm =
    on_fresh_domain (fun () ->
        List.iter (fun case -> ignore (run_case case)) start_cases;
        List.map run_case start_cases)
  in
  List.iter2
    (fun (name, _, _) (want, got) -> check tresult (name ^ ": warm among all = cold") want got)
    start_cases (List.combine cold all_warm)

(* Warm sessions start from one network value: the sharing itself.  The
   network the driver is handed is the start, before [boot] acts. *)
let test_shared_start_is_shared () =
  List.iter
    (fun ((name, _, _) as case) ->
      let same =
        on_fresh_domain (fun () ->
            ignore (run_case case);
            let start_of () =
              let net = ref Netsys.empty in
              ignore
                (Session.boot_external (start_session case) ~make_driver:(fun n ->
                     net := n;
                     Timed.create n));
              !net
            in
            start_of () == start_of ())
      in
      check tbool (name ^ ": one shared start") true same)
    start_cases

(* A start first built with tracing off — here through
   [Session.boot_external] — must not be kept: the next recorded run
   must still carry its full settle prefix, exactly as on a cold
   domain. *)
let test_start_built_untraced () =
  List.iter
    (fun ((name, _, _) as case) ->
      let cold = on_fresh_domain (fun () -> run_case case) in
      let after_untraced =
        on_fresh_domain (fun () ->
            ignore (Session.boot_external (start_session case) ~make_driver:Timed.create);
            run_case case)
      in
      check tresult (name ^ ": recorded run after an untraced build") cold after_untraced)
    start_cases

(* --- the digest ------------------------------------------------------------ *)

(* [Fleet.digest] hashes each outcome's rendering where it was written.
   A path session's rendering is about 4.4 KB, past the 256 words a
   minor-heap block may hold, so a copy of it per outcome would be
   allocated straight in the major heap: about 550 words each.  After
   one warm-up digest on the domain, 1,000 churned outcomes must
   allocate less than a word each there, read from the domain's own
   counters as major minus promoted words. *)
let test_digest_in_place () =
  let direct, per_outcome_bytes =
    on_fresh_domain (fun () ->
        let root = Rng.create 17 in
        let outcomes =
          List.init 1000 (fun id ->
              let s = Scenario.churn_session Scenario.Path ~id ~rng:(Rng.split root) in
              let events, setup = Session.launch ~until:60_000.0 s in
              Session.retire ~setup ~setup_events:events s)
        in
        ignore (Fleet.digest outcomes);
        let _, promoted0, major0 = Gc.counters () in
        ignore (Sys.opaque_identity (Fleet.digest outcomes));
        let _, promoted1, major1 = Gc.counters () in
        let b = Buffer.create 4096 in
        Obs.Trace.Packed.add_jsonl b (List.hd outcomes).Session.trace;
        (major1 -. major0 -. (promoted1 -. promoted0), Buffer.length b))
  in
  check tbool
    (Printf.sprintf "%.0f words allocated in the major heap for 1,000 outcomes of %d bytes" direct
       per_outcome_bytes)
    true
    (per_outcome_bytes > 2048 && direct < 1000.0)

(* The header prints the end time as [%.6f] does, on the fast path for
   whole milliseconds and through [Printf] for everything else. *)
let prop_digest_end_time =
  QCheck2.Test.make ~name:"header end time prints as %.6f" ~count:500
    QCheck2.Gen.(
      frequency
        [
          (4, map float_of_int (int_range 0 10_000_000));
          (3, float_range (-1e6) 1e6);
          (1, map (fun x -> x *. 1e12) (float_range 0.0 1e6));
          ( 1,
            oneofl
              [ 0.0; -0.0; -1.0; -2.5; 0.5e-6; 1e-7; 999999999999999.0; 1e15; 2e15; 1e20;
                4503599627370497.0; infinity; neg_infinity; nan ] );
        ])
    (fun end_time ->
      let o =
        {
          Session.id = 3;
          scenario = "path";
          events = 7;
          end_time;
          trace = Obs.Trace.Packed.empty;
          metrics = Obs.Metrics.create ();
          conformant = true;
          violations = 0;
          verdict = None;
        }
      in
      String.equal (Fleet.digest [ o ])
        (Digest.to_hex (Digest.string (Printf.sprintf "3:path:7:%.6f:ok0:-" end_time))))

(* --- pinned digests --------------------------------------------------------- *)

(* Fixed-seed digests: any change to session behaviour or to a single
   byte of the rendered traces moves them.  The churn is the benchmark
   suite's smoke size (200 residents over 400 ms). *)
let test_pinned_churn_digest () =
  let s =
    Fleet.churn ~jobs:1 ~session_until:60_000.0 ~grace:30_000.0 ~target_population:200
      ~mean_holding:4_000.0 ~duration:400.0 ~seed:1 (fun ~id ~rng ->
        Scenario.churn_session Scenario.Path ~id ~rng)
  in
  check tint "retired" 222 s.Fleet.c_retired;
  check Alcotest.string "churn digest" "ac838b77662b015b095561e4eaa7419e" s.Fleet.c_digest

let test_pinned_batch_digest () =
  let outcomes, _ =
    Fleet.run ~jobs:1 ~until:60_000.0 ~sessions:40 ~seed:1 (fun ~id ~rng ->
        Scenario.session ~loss:0.05 Scenario.Mixed ~id ~rng)
  in
  check Alcotest.string "mixed batch digest" "ddcefcaf36798a1103abe22c25bcc1f6"
    (Fleet.digest outcomes)

(* Scenarios outside the Mixed pool reach delivery paths Mixed never
   does: [Netsys.disconnect] and [dissolve_link] after a relink
   (transfer, music on hold) and [Conference.add_user] (barge-in).
   Prepaid sessions start from [Prepaid.fig13_start], the network the
   Figure-13 driver starts from. *)
let pinned_kind kind want () =
  let outcomes, _ =
    Fleet.run ~jobs:1 ~until:60_000.0 ~sessions:20 ~seed:1 (fun ~id ~rng ->
        Scenario.session ~loss:0.05 kind ~id ~rng)
  in
  check Alcotest.string (Scenario.to_string kind ^ " batch digest") want (Fleet.digest outcomes)

(* The roster size is part of a conference's start: these two catch a
   start shared between conference sizes. *)
let pinned_conf parties want () =
  let outcomes, _ =
    Fleet.run ~jobs:1 ~until:60_000.0 ~sessions:20 ~seed:1 (fun ~id ~rng ->
        Scenario.session ~loss:0.05 ~parties Scenario.Conf ~id ~rng)
  in
  check Alcotest.string
    (Printf.sprintf "%d-party conf batch digest" parties)
    want (Fleet.digest outcomes)

(* The 3-party conference batch and churn of the retired E17
   experiment (seed 11): every session conformant and satisfied. *)
let test_pinned_conf3_batch () =
  let outcomes, summary =
    Fleet.run ~jobs:1 ~until:60_000.0 ~sessions:256 ~seed:11 (fun ~id ~rng ->
        Scenario.session ~parties:3 Scenario.Conf ~id ~rng)
  in
  check tint "conformant" 256 summary.Fleet.conformant;
  check tint "satisfied" 256 summary.Fleet.satisfied;
  check Alcotest.string "3-party conf batch digest" "2b2e6fffb0add994d80bde76c5dc411e"
    (Fleet.digest outcomes)

let test_pinned_conf3_churn () =
  let s =
    Fleet.churn ~jobs:1 ~target_population:500 ~mean_holding:4_000.0 ~duration:4_000.0 ~seed:11
      (fun ~id ~rng -> Scenario.churn_session ~parties:3 Scenario.Conf ~id ~rng)
  in
  check tint "retired" 978 s.Fleet.c_retired;
  check tint "conformant" 978 s.Fleet.c_conformant;
  check tint "satisfied" 978 s.Fleet.c_satisfied;
  check Alcotest.string "3-party conf churn digest" "bd963279127260ec062a90f05d68a95f"
    s.Fleet.c_digest

(* The merged registries, pinned byte for byte at one and two shards:
   a fleet's metrics pool every session's counters and samples, so a
   change to how they are added moves these. *)
let metrics_md5 m = Digest.to_hex (Digest.string (Obs.Metrics.to_json m))

let test_pinned_run_metrics () =
  List.iter
    (fun jobs ->
      let _, s =
        Fleet.run ~jobs ~until:60_000.0 ~sessions:64 ~seed:1 (fun ~id ~rng ->
            Scenario.session ~loss:0.05 Scenario.Mixed ~id ~rng)
      in
      check Alcotest.string
        (Printf.sprintf "mixed run metrics, jobs %d" jobs)
        "bcfaad1079aa486b6fc8901fd0acf458" (metrics_md5 s.Fleet.metrics))
    [ 1; 2 ]

let test_pinned_churn_metrics () =
  List.iter
    (fun jobs ->
      let s =
        Fleet.churn ~jobs ~target_population:500 ~mean_holding:4_000.0 ~duration:2_000.0
          ~seed:1 (fun ~id ~rng -> Scenario.churn_session ~loss:0.05 Scenario.Mixed ~id ~rng)
      in
      check Alcotest.string
        (Printf.sprintf "mixed churn metrics, jobs %d" jobs)
        "be6d93dac70798998d77ce7767bca35d" (metrics_md5 s.Fleet.c_metrics);
      check Alcotest.string
        (Printf.sprintf "mixed churn digest, jobs %d" jobs)
        "c11d56185cf38af4caeb64a13f21fd54" s.Fleet.c_digest)
    [ 1; 2 ]

let () =
  Alcotest.run "fleet"
    [
      ( "rng-split",
        [
          QCheck_alcotest.to_alcotest prop_split_sibling_independent;
          QCheck_alcotest.to_alcotest prop_split_children_distinct;
        ] );
      ("trace", [ Alcotest.test_case "domain isolation" `Quick test_trace_domains_isolated ]);
      ( "metrics",
        [
          Alcotest.test_case "merge" `Quick test_metrics_merge;
          Alcotest.test_case "tied counts order by name" `Quick test_metrics_merge_ties;
        ] );
      ( "session",
        [ Alcotest.test_case "sim before run raises" `Quick test_session_sim_before_run ] );
      ( "fleet",
        [
          Alcotest.test_case "deterministic across jobs 1/2/4" `Quick test_fleet_determinism;
          Alcotest.test_case "conference deterministic across jobs 1/2/4" `Quick
            test_conf_fleet_determinism;
          Alcotest.test_case "sharding covers all ids" `Quick test_fleet_shards_cover_all_ids;
          Alcotest.test_case "block-cyclic balance and kind spread" `Quick test_shard_balance;
        ] );
      ( "spool",
        [
          Alcotest.test_case "slot recycling scrubs cells" `Quick test_spool_recycles;
          Alcotest.test_case "packed append joins brackets" `Quick test_packed_append;
          Alcotest.test_case "packed traces cost at most 3.2 words per entry" `Quick
            test_trace_words_per_entry;
        ] );
      ( "churn",
        [
          QCheck_alcotest.to_alcotest prop_churn_jobs_independent;
          Alcotest.test_case "conference churn digest independent of jobs" `Quick
            test_conf_churn_jobs_independent;
          Alcotest.test_case "horizon drain retires everything" `Quick
            test_churn_retires_everything;
          Alcotest.test_case "minor words counted once at jobs 2" `Quick
            test_churn_minor_words_per_domain;
        ] );
      ( "starts",
        [
          Alcotest.test_case "cold and warm digests agree" `Quick test_shared_start_cold_warm;
          Alcotest.test_case "warm sessions share one start" `Quick test_shared_start_is_shared;
          Alcotest.test_case "an untraced build is not kept" `Quick test_start_built_untraced;
        ] );
      ( "digest",
        [
          Alcotest.test_case "hashed in place" `Quick test_digest_in_place;
          QCheck_alcotest.to_alcotest prop_digest_end_time;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "churn, 200 resident over 400 ms" `Quick test_pinned_churn_digest;
          Alcotest.test_case "fleet run, 40 mixed sessions at 5% loss" `Quick
            test_pinned_batch_digest;
          Alcotest.test_case "fleet run, 20 prepaid sessions at 5% loss" `Quick
            (pinned_kind Scenario.Prepaid "efe3fd2f17098a6a9ce745c0ed883781");
          Alcotest.test_case "fleet run, 20 transfer sessions at 5% loss" `Quick
            (pinned_kind Scenario.Transfer "5b3efe532b56f95992e4857b672feb42");
          Alcotest.test_case "fleet run, 20 barge sessions at 5% loss" `Quick
            (pinned_kind Scenario.Barge "6b0e027f65fb37d59330dba3207a885c");
          Alcotest.test_case "fleet run, 20 moh sessions at 5% loss" `Quick
            (pinned_kind Scenario.Moh "441e125a723804e1383d110a0606c3be");
          Alcotest.test_case "fleet run, 20 2-party confs at 5% loss" `Quick
            (pinned_conf 2 "056ff15f1508891e10f64e1e52564bc9");
          Alcotest.test_case "fleet run, 20 4-party confs at 5% loss" `Quick
            (pinned_conf 4 "967ba69097cc1f5be38f4ffd2ec421ef");
          Alcotest.test_case "fleet run, 256 3-party confs" `Quick test_pinned_conf3_batch;
          Alcotest.test_case "churn, 500 3-party confs over 4000 ms" `Quick
            test_pinned_conf3_churn;
          Alcotest.test_case "merged metrics, 64 mixed sessions at 5% loss" `Quick
            test_pinned_run_metrics;
          Alcotest.test_case "merged metrics, mixed churn of 500 at 5% loss" `Quick
            test_pinned_churn_metrics;
        ] );
    ]
