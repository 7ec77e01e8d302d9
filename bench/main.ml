(* The experiment harness: regenerates every evaluation artifact of the
   paper (see DESIGN.md section 4 and EXPERIMENTS.md).

     dune exec bench/main.exe            # all experiments
     dune exec bench/main.exe e3 micro   # a selection

   E1  Figure 13 convergence latency (2n + 3c)
   E2  the latency formula p*n + (p+1)*c (section VIII-C)
   E3  SIP comparison (section IX-B, Figure 14)
   E4  model checking the 12 path models (section VIII-A)
   E5  Figure 2 vs Figure 3: erroneous vs compositional control
   E6  media clipping: relaxed vs eager synchronization (section VI-A)
   E7  concurrent modifies: idempotent vs transactional (section VI-C)
   E8  extension: hold/resume semantics over SIP (section XI)
   E9  convergence under loss: the reliability layer (mediactl.net)
   E10 the multicore model-checking engine (--json writes BENCH_mc.json)
   E11 observability: monitor verdicts under loss, tracing overhead
   E12 the sharded many-session runtime: timer wheel vs heap on the
       single-session kernel, fleet throughput scaling over domains
       (--json writes BENCH_fleet.json)
   E14 the wall-clock runtime: the live select loop and a real daemon
       against the simulator's analytic latencies
   E18 lint runtime: the whole-tree callgraph and ALLOC001 analysis
       (--json writes BENCH_lint.json)
   micro  Bechamel micro-benchmarks of the core machinery *)

open Mediactl_types
open Mediactl_core
open Mediactl_runtime
open Mediactl_apps

let paper_n = 34.0
let paper_c = 20.0

let header title =
  Format.printf "@.============================================================@.";
  Format.printf "%s@." title;
  Format.printf "============================================================@."

let settle net = fst (Netsys.run net)

let transmits_toward r owner net =
  match Netsys.slot net r with
  | Some slot -> (
    Mediactl_protocol.Slot.tx_enabled slot
    &&
    match slot.Mediactl_protocol.Slot.remote_desc with
    | Some d -> fst (Descriptor.id d) = owner
    | None -> false)
  | None -> false

(* ------------------------------------------------------------------ *)
(* E1: Figure 13                                                       *)

let fig13_latency ~n ~c =
  let net = settle (Prepaid.build ()) in
  let net = settle (fst (Prepaid.snapshot1 net)) in
  let net = settle (fst (Prepaid.snapshot2 net)) in
  let net = settle (fst (Prepaid.snapshot3 net)) in
  let sim = Timed.create ~n ~c net in
  let a_tx = ref nan and c_tx = ref nan in
  Timed.when_true sim (transmits_toward Prepaid.a_slot "C") (fun t -> a_tx := t);
  Timed.when_true sim (transmits_toward Prepaid.c_slot "A") (fun t -> c_tx := t);
  Timed.apply sim Prepaid.snapshot4_pc;
  Timed.apply sim Prepaid.snapshot4_pbx;
  let _ = Timed.run sim in
  Float.max !a_tx !c_tx

let e1 () =
  header "E1  Figure 13: concurrent PBX/PC relink converges in 2n + 3c";
  Format.printf "%8s %8s %12s %12s@." "n (ms)" "c (ms)" "measured" "2n+3c";
  List.iter
    (fun (n, c) ->
      let measured = fig13_latency ~n ~c in
      Format.printf "%8.0f %8.0f %12.1f %12.1f%s@." n c measured
        ((2.0 *. n) +. (3.0 *. c))
        (if abs_float (measured -. ((2.0 *. n) +. (3.0 *. c))) < 1e-6 then "" else "  MISMATCH"))
    [ (paper_n, paper_c); (10.0, 5.0); (50.0, 20.0); (100.0, 1.0); (1.0, 100.0) ];
  Format.printf "paper reports 128 ms at n=34, c=20.@."

(* ------------------------------------------------------------------ *)
(* E2: the latency formula                                             *)

let e2 () =
  header "E2  Latency formula: p*n + (p+1)*c after the last flowlink starts";
  Format.printf "%7s %4s %4s %12s %12s@." "boxes" "j" "p" "measured" "formula";
  List.iter
    (fun boxes ->
      List.iter
        (fun j ->
          let net, _ = Netsys.run (Relink.build ~boxes ~j) in
          let sim = Timed.create ~n:paper_n ~c:paper_c net in
          let done_at = ref nan in
          Timed.when_true sim
            (fun net -> Relink.left_transmits net && Relink.right_transmits net)
            (fun t -> done_at := t);
          Timed.apply sim (Relink.relink ~j);
          let _ = Timed.run sim in
          let p = Relink.hops ~boxes ~j in
          let formula = Relink.formula ~p ~n:paper_n ~c:paper_c in
          Format.printf "%7d %4d %4d %12.1f %12.1f%s@." boxes j p !done_at formula
            (if abs_float (!done_at -. formula) < 1e-6 then "" else "  MISMATCH"))
        (List.init boxes (fun i -> i + 1)))
    [ 1; 2; 3; 4; 6 ]

(* ------------------------------------------------------------------ *)
(* E3: SIP comparison                                                  *)

let e3 () =
  header "E3  SIP third-party call control vs our protocol (section IX-B)";
  let ours = fig13_latency ~n:paper_n ~c:paper_c in
  let common = Mediactl_sip.Scenario.fig14_common ~n:paper_n ~c:paper_c () in
  let seeds = List.init 25 (fun i -> 100 + i) in
  let races =
    List.map
      (fun seed -> Mediactl_sip.Scenario.fig14_race ~seed ~n:paper_n ~c:paper_c ())
      seeds
  in
  let stats = Mediactl_sim.Stats.create () in
  List.iter (fun (o : Mediactl_sip.Scenario.outcome) -> Mediactl_sim.Stats.add stats o.latency) races;
  Format.printf "%-34s %10s %10s %8s@." "scenario" "latency" "messages" "glares";
  Format.printf "%-34s %8.0fms %10d %8d@." "ours (Figure 13, concurrent)" ours 12 0;
  Format.printf "%-34s %8.0fms %10d %8d@." "SIP common case (no contention)"
    common.Mediactl_sip.Scenario.latency common.Mediactl_sip.Scenario.messages
    common.Mediactl_sip.Scenario.glares;
  Format.printf "%-34s %8.0fms %10d %8d   (mean of %d seeds; min %.0f, max %.0f)@."
    "SIP with invite race (Figure 14)"
    (Mediactl_sim.Stats.mean stats)
    (List.fold_left (fun acc (o : Mediactl_sip.Scenario.outcome) -> acc + o.messages) 0 races
     / List.length races)
    (List.fold_left (fun acc (o : Mediactl_sip.Scenario.outcome) -> acc + o.glares) 0 races
     / List.length races)
    (List.length races)
    (Mediactl_sim.Stats.min stats) (Mediactl_sim.Stats.max stats);
  Format.printf "@.paper's analysis (n=34, c=20):@.";
  Format.printf "  ours                 2n +  3c      = %6.0f ms@." ((2.0 *. paper_n) +. (3.0 *. paper_c));
  Format.printf "  SIP common case      7n +  7c      = %6.0f ms@."
    (Mediactl_sip.Scenario.common_formula ~n:paper_n ~c:paper_c);
  Format.printf "  SIP with race       10n + 11c + d  = %6.0f ms (d = 3 s expected)@."
    (Mediactl_sip.Scenario.race_formula ~n:paper_n ~c:paper_c ~d:3000.0);
  Format.printf "@.delay sources SIP adds (paper section IX-B):@.";
  Format.printf "  (1) soliciting a fresh offer (no caching):   2n + 2c = %4.0f ms@."
    ((2.0 *. paper_n) +. (2.0 *. paper_c));
  Format.printf "  (2) failing and retrying under contention:   3n + 4c + d@.";
  Format.printf "  (3) sequential rather than parallel describe: 3n + 2c = %4.0f ms@."
    ((3.0 *. paper_n) +. (2.0 *. paper_c));
  Format.printf "@.shape check: SIP common/ours = %.1fx (paper: 378/128 = 3.0x); race mean/ours = %.0fx@."
    (common.Mediactl_sip.Scenario.latency /. ours)
    (Mediactl_sim.Stats.mean stats /. ours)

(* ------------------------------------------------------------------ *)
(* E4: model checking                                                  *)

let e4 () =
  header "E4  Model checking the 12 path models (section VIII-A)";
  Format.printf "(chaos phase: 1 nondeterministic action per goal object; 1 mute change per endpoint)@.";
  let reports = Mediactl_mc.Check.run_standard ~max_states:4_000_000 ~chaos:1 ~modifies:1 () in
  List.iter (fun r -> Format.printf "%a@." Mediactl_mc.Check.pp_report r) reports;
  let all_passed = List.for_all Mediactl_mc.Check.passed reports in
  Format.printf "@.all 12 models: %s@." (if all_passed then "safety + specification HOLD" else "FAILURES");
  (* Resource growth when a flowlink is added (the paper saw x300 memory
     and x1000 time in Spin; the shape is a multiplicative blowup). *)
  let pairs =
    List.filteri (fun i _ -> i < 6) reports
    |> List.mapi (fun i r0 -> (r0, List.nth reports (i + 6)))
  in
  Format.printf "@.%-24s %10s %12s %10s %10s@." "adding one flowlink:" "states" "states(fl)"
    "growth" "time x";
  List.iter
    (fun ((r0 : Mediactl_mc.Check.report), (r1 : Mediactl_mc.Check.report)) ->
      Format.printf "%-24s %10d %12d %9.1fx %9.1fx@."
        (Mediactl_mc.Path_model.config_name r0.Mediactl_mc.Check.config)
        r0.Mediactl_mc.Check.states r1.Mediactl_mc.Check.states
        (float_of_int r1.Mediactl_mc.Check.states /. float_of_int r0.Mediactl_mc.Check.states)
        (r1.Mediactl_mc.Check.time_s /. Float.max 1e-4 r0.Mediactl_mc.Check.time_s))
    pairs;
  (* The section VIII-B segment lemma: path segments under arbitrary
     environments, the building block of an inductive proof over paths
     of any length.  This is the check the paper projected at ~900 GB /
     300 hours in Spin for two flowlinks. *)
  Format.printf "@.segment lemma (section VIII-B): interior flowlinks vs arbitrary environments@.";
  List.iter
    (fun (flowlinks, chaos) ->
      let r = Mediactl_mc.Check.run_segment ~max_states:4_000_000 ~flowlinks ~chaos () in
      Format.printf "  flowlinks=%d chaos=%d: %a@." flowlinks chaos Mediactl_mc.Check.pp_report r)
    [ (1, 1); (1, 2); (2, 1) ]

(* ------------------------------------------------------------------ *)
(* E5: Figure 2 vs Figure 3                                            *)

let show_edges edges =
  if edges = [] then "(silence)"
  else String.concat ", " (List.map (fun (a, b) -> a ^ "->" ^ b) edges)

let e5 () =
  header "E5  Erroneous (Figure 2) vs compositional (Figure 3) media control";
  Format.printf "%-12s %-34s %-34s@." "snapshot" "uncoordinated servers" "with the primitives";
  let naive = ref (Naive.initial ()) in
  let net = ref (settle (Prepaid.build ())) in
  let compositional = [ Prepaid.snapshot1; Prepaid.snapshot2; Prepaid.snapshot3 ] in
  List.iteri
    (fun i step ->
      let snap = i + 1 in
      if snap > 1 then naive := Naive.snapshot !naive snap;
      net := settle (fst (step !net));
      Format.printf "%-12d %-34s %-34s@." snap
        (show_edges (Naive.flows !naive))
        (show_edges (Prepaid.flows !net)))
    compositional;
  naive := Naive.snapshot !naive 4;
  let net4, _ = Prepaid.snapshot4_pc !net in
  let net4, _ = Prepaid.snapshot4_pbx net4 in
  let net4 = settle net4 in
  Format.printf "%-12d %-34s %-34s@." 4 (show_edges (Naive.flows !naive))
    (show_edges (Prepaid.flows net4));
  Format.printf "@.anomalies under uncoordinated control (paper section II-A):@.";
  List.iter (fun a -> Format.printf "  - %s@." a) (Naive.anomalies !naive);
  Format.printf "wasted transmissions: %s@." (show_edges (Naive.wasted !naive));
  Format.printf "anomalies under compositional control: none (flows match Figure 3 exactly)@."

(* ------------------------------------------------------------------ *)
(* E6: clipping                                                        *)

let e6 () =
  header "E6  Media clipping at channel setup: relaxed vs eager listening";
  Format.printf "(open/hold path with one flowlink; packets every 20 ms; n=%.0f, c=%.0f)@.@."
    paper_n paper_c;
  (* Establish a channel under the timed driver, recording when the
     opener starts transmitting and when the acceptor becomes ready
     under each synchronization discipline. *)
  let net = List.fold_left Netsys.add_box Netsys.empty [ "L"; "S"; "R" ] in
  let net = Netsys.connect net ~chan:"ls" ~initiator:"L" ~acceptor:"S" () in
  let net = Netsys.connect net ~chan:"sr" ~initiator:"S" ~acceptor:"R" () in
  let net, _ =
    Netsys.bind_hold net (Netsys.slot_ref ~box:"R" ~chan:"sr" ())
      (Local.endpoint ~owner:"R" (Address.v "10.0.0.2" 5000) [ Codec.G711 ])
  in
  let net, _ =
    Netsys.bind_link net ~box:"S" ~id:"fl" { Netsys.chan = "ls"; tun = 0 }
      { Netsys.chan = "sr"; tun = 0 }
  in
  let sim = Timed.create ~n:paper_n ~c:paper_c net in
  let sender_tx = ref nan and relaxed_ready = ref nan and eager_ready = ref nan in
  let l_ref = Netsys.slot_ref ~box:"L" ~chan:"ls" () in
  let r_ref = Netsys.slot_ref ~box:"R" ~chan:"sr" () in
  let slot_pred r pred net =
    match Netsys.slot net r with
    | Some slot -> pred slot
    | None -> false
  in
  Timed.when_true sim (slot_pred l_ref Mediactl_protocol.Slot.tx_enabled) (fun t -> sender_tx := t);
  Timed.when_true sim (slot_pred r_ref Mediactl_protocol.Slot.rx_enabled) (fun t ->
      relaxed_ready := t);
  Timed.when_true sim (slot_pred r_ref Mediactl_protocol.Slot.is_flowing) (fun t ->
      eager_ready := t);
  Timed.apply sim (fun net ->
      Netsys.bind_open net l_ref
        (Local.endpoint ~owner:"L" (Address.v "10.0.0.1" 5000) [ Codec.G711 ])
        Medium.Audio);
  let _ = Timed.run sim in
  Format.printf "sender may transmit at %.0f ms; receiver ready: relaxed %.0f ms, eager %.0f ms@.@."
    !sender_tx !relaxed_ready !eager_ready;
  Format.printf "%14s %18s %18s@." "media transit" "clipped (relaxed)" "clipped (eager)";
  List.iter
    (fun transit ->
      let packets =
        Mediactl_media.Rtp.generate ~start:!sender_tx ~stop:(!sender_tx +. 2000.0) ~interval:20.0
          Codec.G711
      in
      let relaxed = Mediactl_media.Rtp.account packets ~transit ~ready_at:!relaxed_ready in
      let eager = Mediactl_media.Rtp.account packets ~transit ~ready_at:!eager_ready in
      Format.printf "%11.0f ms %18d %18d@." transit relaxed.Mediactl_media.Rtp.clipped
        eager.Mediactl_media.Rtp.clipped)
    [ 0.0; 5.0; 10.0; 20.0; 40.0; 80.0 ];
  Format.printf "@.relaxed sync loses the packets in flight before the selector lands;@.";
  Format.printf "eager listening (paper footnote 5) eliminates clipping entirely.@."

(* ------------------------------------------------------------------ *)
(* E7: concurrent modifies                                             *)

let e7 () =
  header "E7  Concurrent modifies: idempotent describes vs SIP transactions";
  (* Ours: two endpoints on one tunnel, both change mute at t=0. *)
  let net = List.fold_left Netsys.add_box Netsys.empty [ "L"; "R" ] in
  let net = Netsys.connect net ~chan:"c" ~initiator:"L" ~acceptor:"R" () in
  let net, _ =
    Netsys.bind_hold net (Netsys.slot_ref ~box:"R" ~chan:"c" ())
      (Local.endpoint ~owner:"R" (Address.v "10.0.0.2" 5000) [ Codec.G711 ])
  in
  let net, _ =
    Netsys.bind_open net (Netsys.slot_ref ~box:"L" ~chan:"c" ())
      (Local.endpoint ~owner:"L" (Address.v "10.0.0.1" 5000) [ Codec.G711 ])
      Medium.Audio
  in
  let net = settle net in
  let sim = Timed.create ~n:paper_n ~c:paper_c net in
  let signals = ref 0 in
  let done_at = ref nan in
  let l_ref = Netsys.slot_ref ~box:"L" ~chan:"c" () in
  let r_ref = Netsys.slot_ref ~box:"R" ~chan:"c" () in
  Timed.when_true sim
    (fun net ->
      match Netsys.slot net l_ref, Netsys.slot net r_ref with
      | Some l, Some r ->
        (* Both modifies have taken effect end to end: nobody receives. *)
        Semantics.both_flowing ~left:l ~right:r
        && (not (Mediactl_protocol.Slot.rx_enabled l))
        && not (Mediactl_protocol.Slot.rx_enabled r)
      | _ -> false)
    (fun t -> done_at := t);
  Timed.apply sim (fun net ->
      let net, s1 = Netsys.modify net l_ref Mute.out_only in
      let net, s2 = Netsys.modify net r_ref Mute.out_only in
      signals := List.length s1 + List.length s2;
      (net, s1 @ s2));
  let _ = Timed.run sim in
  Format.printf "%-42s %10s %10s %8s@." "protocol" "latency" "messages" "glares";
  Format.printf "%-42s %8.0fms %10d %8d@." "ours: both ends mute concurrently" !done_at
    (!signals + 2) 0;
  (* SIP: re-INVITE glare, averaged over seeds. *)
  let seeds = List.init 25 (fun i -> 300 + i) in
  let outcomes =
    List.map (fun seed -> Mediactl_sip.Scenario.glare_modify ~seed ~n:paper_n ~c:paper_c ()) seeds
  in
  let stats = Mediactl_sim.Stats.create () in
  List.iter
    (fun (o : Mediactl_sip.Scenario.outcome) -> Mediactl_sim.Stats.add stats o.latency)
    outcomes;
  Format.printf "%-42s %8.0fms %10d %8d   (mean of %d seeds)@."
    "SIP: crossing re-INVITEs glare and retry"
    (Mediactl_sim.Stats.mean stats)
    (List.fold_left (fun a (o : Mediactl_sip.Scenario.outcome) -> a + o.messages) 0 outcomes
     / List.length outcomes)
    (List.fold_left (fun a (o : Mediactl_sip.Scenario.outcome) -> a + o.glares) 0 outcomes
     / List.length outcomes)
    (List.length seeds);
  Format.printf "@.describe/select signals in opposite directions do not constrain each other@.";
  Format.printf "(paper section VI-C): no serialization, no failed exchanges, no back-off.@."

(* ------------------------------------------------------------------ *)
(* E8: hold/resume over SIP (the section-XI extension)                 *)

let e8 () =
  header "E8  Extension: the specification's hold semantics over SIP (section XI)";
  (* Ours: an established A-SRV-C path; the server swaps the flowlink
     for two holdslots, then relinks. *)
  let net = List.fold_left Netsys.add_box Netsys.empty [ "A"; "SRV"; "C" ] in
  let net = Netsys.connect net ~chan:"a" ~initiator:"A" ~acceptor:"SRV" () in
  let net = Netsys.connect net ~chan:"c" ~initiator:"SRV" ~acceptor:"C" () in
  let local_a = Local.endpoint ~owner:"A" (Address.v "10.0.0.1" 5000) [ Codec.G711 ] in
  let local_c = Local.endpoint ~owner:"C" (Address.v "10.0.0.3" 5000) [ Codec.G711 ] in
  let keyed chan = { Netsys.chan; tun = 0 } in
  let net, _ = Netsys.bind_hold net (Netsys.slot_ref ~box:"C" ~chan:"c" ()) local_c in
  let net, _ = Netsys.bind_link net ~box:"SRV" ~id:"call" (keyed "a") (keyed "c") in
  let net, _ =
    Netsys.bind_open net (Netsys.slot_ref ~box:"A" ~chan:"a" ()) local_a Medium.Audio
  in
  let net = settle net in
  let silent net =
    match Netsys.slot net (Netsys.slot_ref ~box:"A" ~chan:"a" ()),
          Netsys.slot net (Netsys.slot_ref ~box:"C" ~chan:"c" ()) with
    | Some a, Some c ->
      (not (Mediactl_protocol.Slot.rx_enabled a)) && not (Mediactl_protocol.Slot.rx_enabled c)
    | _ -> false
  in
  let flowing net =
    match Netsys.slot net (Netsys.slot_ref ~box:"A" ~chan:"a" ()),
          Netsys.slot net (Netsys.slot_ref ~box:"C" ~chan:"c" ()) with
    | Some a, Some c ->
      Mediactl_protocol.Slot.rx_enabled a && Mediactl_protocol.Slot.rx_enabled c
    | _ -> false
  in
  let sim = Timed.create ~n:paper_n ~c:paper_c net in
  let held_at = ref nan in
  Timed.when_true sim silent (fun t -> held_at := t);
  let hold_face = Local.server ~owner:"SRV.hold" in
  Timed.apply sim (fun net -> Netsys.bind_hold net (Netsys.slot_ref ~box:"SRV" ~chan:"a" ()) hold_face);
  Timed.apply sim (fun net -> Netsys.bind_hold net (Netsys.slot_ref ~box:"SRV" ~chan:"c" ()) hold_face);
  let _ = Timed.run sim in
  let hold_start = Timed.now sim in
  let resumed_at = ref nan in
  Timed.when_true sim flowing (fun t -> resumed_at := t -. hold_start);
  Timed.apply sim (fun net -> Netsys.bind_link net ~box:"SRV" ~id:"call" (keyed "a") (keyed "c"));
  let _ = Timed.run sim in
  (* Over SIP. *)
  let sip_hold, sip_resume = Mediactl_sip.Scenario.hold_resume ~n:paper_n ~c:paper_c () in
  Format.printf "%-28s %14s %14s@." "operation" "ours" "over SIP";
  Format.printf "%-28s %12.0fms %12.0fms@." "hold both parties" !held_at
    sip_hold.Mediactl_sip.Scenario.latency;
  Format.printf "%-28s %12.0fms %12.0fms@." "resume" !resumed_at
    sip_resume.Mediactl_sip.Scenario.latency;
  Format.printf "@.SIP holds cheaply (two concurrent transactions) but resuming pays the@.";
  Format.printf "solicitation penalty: answers are relative and offers cannot be cached,@.";
  Format.printf "while our flowlink resumes from cached descriptors (paper section IX-B).@."

(* ------------------------------------------------------------------ *)
(* E9: convergence under network impairment                            *)

(* The Figure-13 two-box relink of E1, but over an impaired network with
   the reliability layer attached.  Returns the convergence latency (nan
   if the run never converged) and the layer's counters. *)
let fig13_impaired ?sched ~seed ~loss () =
  let net = settle (Prepaid.build ()) in
  let net = settle (fst (Prepaid.snapshot1 net)) in
  let net = settle (fst (Prepaid.snapshot2 net)) in
  let net = settle (fst (Prepaid.snapshot3 net)) in
  let sim = Timed.create ~seed ?sched ~n:paper_n ~c:paper_c net in
  let impair =
    Mediactl_net.Impair.create ~seed ~default:(Mediactl_net.Policy.lossy loss) ()
  in
  let rel = Mediactl_net.Reliable.attach impair sim in
  let a_tx = ref nan and c_tx = ref nan in
  Timed.when_true sim (transmits_toward Prepaid.a_slot "C") (fun t -> a_tx := t);
  Timed.when_true sim (transmits_toward Prepaid.c_slot "A") (fun t -> c_tx := t);
  Timed.apply sim Prepaid.snapshot4_pc;
  Timed.apply sim Prepaid.snapshot4_pbx;
  let _ = Timed.run sim in
  (Float.max !a_tx !c_tx, Mediactl_net.Reliable.counters rel)

let chain3_impaired ~seed ~loss =
  let net, _ = Netsys.run (Relink.build ~boxes:3 ~j:2) in
  let sim = Timed.create ~seed ~n:paper_n ~c:paper_c net in
  let impair =
    Mediactl_net.Impair.create ~seed ~default:(Mediactl_net.Policy.lossy loss) ()
  in
  let rel = Mediactl_net.Reliable.attach impair sim in
  let done_at = ref nan in
  Timed.when_true sim
    (fun net -> Relink.left_transmits net && Relink.right_transmits net)
    (fun t -> done_at := t);
  Timed.apply sim (Relink.relink ~j:2);
  let _ = Timed.run sim in
  (!done_at, Mediactl_net.Reliable.counters rel)

let e9 () =
  header "E9  Convergence under loss: the reliability layer at work";
  let seeds = List.init 30 (fun i -> 1000 + i) in
  let loss_rates = [ 0.0; 0.01; 0.05; 0.1 ] in
  let section title runner loss_free =
    Format.printf "@.%s (n=%.0f, c=%.0f; %d seeds; loss-free formula %.0f ms)@." title paper_n
      paper_c (List.length seeds) loss_free;
    Format.printf "%8s %8s %10s %10s %10s %10s %9s@." "loss" "converged" "mean ms" "p95 ms"
      "max ms" "retx/run" "timeouts";
    List.iter
      (fun loss ->
        let stats = Mediactl_sim.Stats.create () in
        let retx = ref 0 and timeouts = ref 0 and converged = ref 0 in
        List.iter
          (fun seed ->
            let latency, (c : Mediactl_net.Reliable.counters) = runner ~seed ~loss in
            retx := !retx + c.Mediactl_net.Reliable.retransmits;
            timeouts := !timeouts + c.Mediactl_net.Reliable.timeouts;
            if not (Float.is_nan latency) then begin
              incr converged;
              Mediactl_sim.Stats.add stats latency
            end)
          seeds;
        Format.printf "%8.2f %5d/%-3d %10.1f %10.1f %10.1f %10.2f %9d%s@." loss !converged
          (List.length seeds)
          (Mediactl_sim.Stats.mean stats)
          (Mediactl_sim.Stats.percentile stats 0.95)
          (Mediactl_sim.Stats.max stats)
          (float_of_int !retx /. float_of_int (List.length seeds))
          !timeouts
          (if loss = 0.0 && Mediactl_sim.Stats.max stats -. Mediactl_sim.Stats.min stats = 0.0
             && abs_float (Mediactl_sim.Stats.mean stats -. loss_free) < 1e-6
           then "  (= loss-free formula exactly)"
           else ""))
      loss_rates
  in
  section "Figure-13 two-box relink"
    (fun ~seed ~loss -> fig13_impaired ~seed ~loss ())
    ((2.0 *. paper_n) +. (3.0 *. paper_c));
  section "3-box chain relink (boxes=3, j=2)" chain3_impaired
    (Relink.formula ~p:(Relink.hops ~boxes:3 ~j:2) ~n:paper_n ~c:paper_c);
  (* Re-verify the two-box path models under a network-fault budget: the
     checker must find no new violations when the network may lose and
     duplicate idempotent signals (paper section VI, mechanised). *)
  Format.printf "@.model checking the two-box models under faults (loss=1 dup=1, idempotent only):@.";
  let faults = { Mediactl_mc.Path_model.losses = 1; dups = 1; unrestricted = false } in
  let reports =
    Mediactl_mc.Check.run_standard ~max_states:4_000_000 ~faults ~chaos:1 ~modifies:0 ()
    |> List.filter (fun (r : Mediactl_mc.Check.report) ->
           r.Mediactl_mc.Check.config.Mediactl_mc.Path_model.flowlinks = 0)
  in
  List.iter (fun r -> Format.printf "  %a@." Mediactl_mc.Check.pp_report r) reports;
  Format.printf "  two-box models under faults: %s@."
    (if List.for_all Mediactl_mc.Check.passed reports then "no new violations"
     else "FAILURES");
  (* And the demonstration of why the reliability layer must exist:
     allow the network to duplicate a handshake signal and the checker
     finds the protocol error immediately. *)
  let unrestricted =
    Mediactl_mc.Check.run ~max_states:4_000_000
      (Mediactl_mc.Path_model.path_config
         ~faults:{ Mediactl_mc.Path_model.losses = 0; dups = 1; unrestricted = true }
         ~left:Semantics.Open_end ~right:Semantics.Hold_end ~flowlinks:0 ~chaos:1 ~modifies:0 ())
  in
  Format.printf "@.without the restriction (a duplicated handshake signal):@.  %a@."
    Mediactl_mc.Check.pp_report unrestricted;
  Format.printf "  expected UNSAFE: this is the violation the reliability layer's@.";
  Format.printf "  sequence-number deduplication removes (Reliable.on_deliver).@."

(* ------------------------------------------------------------------ *)
(* E10: the multicore model-checking engine                            *)

module PM = Mediactl_mc.Path_model
module MC_check = Mediactl_mc.Check

(* The before side of the comparison is [Seed_baseline]: the pipeline
   exactly as the seed shipped it (Marshal-keyed interning, successor
   lists, list-based SCC/temporal).  Seed STATE COUNTS are reported in
   their own column and are expected to be LARGER than the engine's:
   Marshal keys are sharing-sensitive, so the seed split structurally
   equal states and explored an inflated space (about 2x in flowlink
   models).  Verdicts still agree — splitting never merges distinct
   states — so row agreement demands equal verdicts across all three
   runs, and bit-identical counts between --jobs 1 and --jobs 4. *)

type e10_row = {
  row_name : string;
  row_states : int;
  row_transitions : int;
  seed_states : int;
  seed_s : float;
  packed_s : float;
  parallel_s : float;
  row_agree : bool;
  row_passed : bool;
}

let e10_jobs = 4
let e10_cap = 4_000_000

let seed_pipeline config =
  let t0 = Unix.gettimeofday () in
  let r = Seed_baseline.run ~max_states:e10_cap config in
  (Unix.gettimeofday () -. t0, r.Seed_baseline.states, r.Seed_baseline.safety_ok && r.Seed_baseline.spec_ok)

let e10_write_json rows =
  let total f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
  let tm = total (fun r -> r.seed_s) in
  let tp = total (fun r -> r.packed_s) in
  let tq = total (fun r -> r.parallel_s) in
  let states = List.fold_left (fun acc r -> acc + r.row_states) 0 rows in
  let seed_states = List.fold_left (fun acc r -> acc + r.seed_states) 0 rows in
  let rate s t = float_of_int s /. Float.max 1e-9 t in
  let oc = open_out "BENCH_mc.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"experiment\": \"e10\",\n";
  Printf.fprintf oc "  \"sweep\": { \"chaos\": 2, \"modifies\": 0, \"losses\": 1, \"dups\": 1 },\n";
  Printf.fprintf oc "  \"jobs\": %d,\n" e10_jobs;
  Printf.fprintf oc "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  Printf.fprintf oc
    "  \"note\": \"seed_states > states because the seed's Marshal intern keys are \
     sharing-sensitive and split structurally equal states; the packed codec is canonical. \
     agree = equal verdicts across all three runs and bit-identical counts between jobs:1 \
     and jobs:4.\",\n";
  Printf.fprintf oc "  \"models\": [\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    { \"config\": %S, \"states\": %d, \"transitions\": %d, \"seed_states\": %d, \
         \"seed_s\": %.4f, \"packed_s\": %.4f, \"parallel_s\": %.4f, \
         \"packed_states_per_s\": %.0f, \"parallel_states_per_s\": %.0f, \
         \"speedup_packed\": %.2f, \"speedup_parallel\": %.2f, \"agree\": %b, \"passed\": %b }%s\n"
        r.row_name r.row_states r.row_transitions r.seed_states r.seed_s r.packed_s
        r.parallel_s
        (rate r.row_states r.packed_s) (rate r.row_states r.parallel_s)
        (r.seed_s /. Float.max 1e-9 r.packed_s)
        (r.seed_s /. Float.max 1e-9 r.parallel_s)
        r.row_agree r.row_passed
        (if i = last then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc
    "  \"totals\": { \"states\": %d, \"seed_states\": %d, \"seed_s\": %.4f, \"packed_s\": \
     %.4f, \"parallel_s\": %.4f, \"seed_states_per_s\": %.0f, \"packed_states_per_s\": %.0f, \
     \"parallel_states_per_s\": %.0f, \"speedup_packed\": %.2f, \"speedup_parallel\": %.2f, \
     \"all_agree\": %b, \"all_passed\": %b }\n"
    states seed_states tm tp tq (rate seed_states tm) (rate states tp) (rate states tq)
    (tm /. Float.max 1e-9 tp)
    (tm /. Float.max 1e-9 tq)
    (List.for_all (fun r -> r.row_agree) rows)
    (List.for_all (fun r -> r.row_passed) rows);
  Printf.fprintf oc "}\n";
  close_out oc;
  Format.printf "@.wrote BENCH_mc.json@."

let json_mode = ref false

let e10 () =
  header "E10  Multicore engine: seed pipeline vs packed keys vs parallel BFS";
  Format.printf
    "(12 models at chaos=2, modifies=0, loss=1, dup=1; parallel = --jobs %d on a machine with \
     %d recommended domains)@.@."
    e10_jobs
    (Domain.recommended_domain_count ());
  Format.printf "%-28s %8s %8s %9s | %8s %8s %8s | %6s %6s@." "model" "seed-st" "states"
    "trans" "seed" "packed" "par" "pack x" "par x";
  let rows =
    List.map
      (fun config ->
        let row_name = PM.config_name config in
        let seed_s, seed_states, seed_passed = seed_pipeline config in
        let r1 = MC_check.run ~max_states:e10_cap ~jobs:1 config in
        let r4 = MC_check.run ~max_states:e10_cap ~jobs:e10_jobs config in
        let row_agree =
          r1.MC_check.states = r4.MC_check.states
          && r1.MC_check.transitions = r4.MC_check.transitions
          && r1.MC_check.terminals = r4.MC_check.terminals
          && seed_passed = MC_check.passed r1
          && MC_check.passed r1 = MC_check.passed r4
        in
        let row =
          {
            row_name;
            row_states = r1.MC_check.states;
            row_transitions = r1.MC_check.transitions;
            seed_states;
            seed_s;
            packed_s = r1.MC_check.time_s;
            parallel_s = r4.MC_check.time_s;
            row_agree;
            row_passed = MC_check.passed r1;
          }
        in
        Format.printf "%-28s %8d %8d %9d | %7.2fs %7.2fs %7.2fs | %5.1fx %5.1fx%s@." row_name
          seed_states row.row_states row.row_transitions seed_s row.packed_s row.parallel_s
          (seed_s /. Float.max 1e-9 row.packed_s)
          (seed_s /. Float.max 1e-9 row.parallel_s)
          (if row_agree then "" else "  DISAGREE");
        row)
      (PM.standard_configs
         ~faults:{ PM.losses = 1; dups = 1; unrestricted = false }
         ~chaos:2 ~modifies:0 ())
  in
  let total f = List.fold_left (fun acc r -> acc +. f r) 0.0 rows in
  let tm = total (fun r -> r.seed_s) in
  let tp = total (fun r -> r.packed_s) in
  let tq = total (fun r -> r.parallel_s) in
  let states = List.fold_left (fun acc r -> acc + r.row_states) 0 rows in
  let seed_states = List.fold_left (fun acc r -> acc + r.seed_states) 0 rows in
  Format.printf "%-28s %8d %8d %9s | %7.2fs %7.2fs %7.2fs | %5.1fx %5.1fx@." "TOTAL"
    seed_states states "" tm tp tq
    (tm /. Float.max 1e-9 tp)
    (tm /. Float.max 1e-9 tq);
  Format.printf "@.states/sec: seed %.0f, packed %.0f, packed+parallel %.0f@."
    (float_of_int seed_states /. Float.max 1e-9 tm)
    (float_of_int states /. Float.max 1e-9 tp)
    (float_of_int states /. Float.max 1e-9 tq);
  Format.printf
    "seed-st > states: the seed's Marshal intern keys are sharing-sensitive and split@.";
  Format.printf
    "structurally equal states (%.2fx inflation); the packed codec is canonical.@."
    (float_of_int seed_states /. Float.max 1.0 (float_of_int states));
  Format.printf "verdicts and jobs:1/jobs:%d counts: %s@." e10_jobs
    (if List.for_all (fun r -> r.row_agree) rows then "agree on all 12 models"
     else "DISAGREEMENT — engine bug");
  if !json_mode then e10_write_json rows

(* ------------------------------------------------------------------ *)
(* E11: observability — monitor verdicts and tracing overhead          *)

(* A traced path run (the live counterpart of the checker's
   openslot--openslot model), returning the captured trace. *)
let e11_traced_path ~seed ~loss ~flowlinks =
  snd
    (Mediactl_obs.Trace.recording_packed (fun () ->
         let sim = Timed.create ~seed ~n:paper_n ~c:paper_c (Pathlab.topology ~flowlinks ()) in
         Timed.observe sim;
         if loss > 0.0 then begin
           let impair =
             Mediactl_net.Impair.create ~seed ~default:(Mediactl_net.Policy.lossy loss) ()
           in
           ignore (Mediactl_net.Reliable.attach impair sim)
         end;
         Timed.apply sim (Pathlab.engage_left Semantics.Open_end);
         Timed.apply sim (Pathlab.engage_right Semantics.Open_end ~flowlinks);
         ignore (Timed.run ~until:60_000.0 sim)))

let e11 () =
  header "E11  Observability: monitor verdicts under loss, and tracing overhead";
  let seeds = List.init 30 (fun i -> 4000 + i) in
  let loss_rates = [ 0.0; 0.01; 0.05; 0.1 ] in
  Format.printf "@.openslot--openslot path runs, []<> bothFlowing via Obs.Monitor";
  Format.printf " (%d seeds per rate):@." (List.length seeds);
  Format.printf "%8s %11s %10s %10s %10s %9s %8s@." "loss" "conformant" "satisfied"
    "undeterm" "violated" "events" "races";
  List.iter
    (fun loss ->
      let conformant = ref 0 and sat = ref 0 and undet = ref 0 and viol = ref 0 in
      let events_n = ref 0 and races = ref 0 in
      List.iter
        (fun seed ->
          let trace = e11_traced_path ~seed ~loss ~flowlinks:0 in
          let monitor = Mediactl_obs.Monitor.run_packed trace in
          let report = Mediactl_obs.Monitor.report monitor in
          if Mediactl_obs.Monitor.conformant report then incr conformant;
          events_n := !events_n + Mediactl_obs.Trace.Packed.length trace;
          List.iter
            (fun (t : Mediactl_obs.Monitor.tunnel_report) ->
              races := !races + t.Mediactl_obs.Monitor.races)
            report.Mediactl_obs.Monitor.tunnels;
          match
            Mediactl_obs.Monitor.judge
              {
                Mediactl_obs.Monitor.structural = loss > 0.0;
                obligation = Mediactl_obs.Monitor.Always_eventually_flowing;
                legs = [ Pathlab.ends ~flowlinks:0 ];
              }
              monitor
          with
          | Mediactl_obs.Monitor.Satisfied -> incr sat
          | Mediactl_obs.Monitor.Undetermined _ -> incr undet
          | Mediactl_obs.Monitor.Violated _ -> incr viol)
        seeds;
      Format.printf "%8.2f %7d/%-3d %10d %10d %10d %9.1f %8d@." loss !conformant
        (List.length seeds) !sat !undet !viol
        (float_of_int !events_n /. float_of_int (List.length seeds))
        !races)
    loss_rates;
  (* Tracing overhead on the E9 kernel: the Figure-13 relink under 5%
     loss, untraced vs traced into the ring.  The instrumentation is
     a load and a branch when disabled, so the untraced runs here bound
     the cost the checker and the other experiments pay: zero. *)
  let reps = 400 in
  let run_once ~seed = ignore (fig13_impaired ~seed ~loss:0.05 ()) in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  for i = 1 to 50 do run_once ~seed:(4900 + i) done;
  (* Interleave the two arms so clock drift and cache state cancel. *)
  let untraced = ref 0.0 and traced = ref 0.0 and traced_events = ref 0 in
  for i = 1 to reps do
    untraced := !untraced +. time (fun () -> run_once ~seed:(5000 + i));
    traced :=
      !traced
      +. time (fun () ->
             let (), trace =
               Mediactl_obs.Trace.recording_packed (fun () -> run_once ~seed:(5000 + i))
             in
             traced_events := !traced_events + Mediactl_obs.Trace.Packed.length trace)
  done;
  let untraced = !untraced and traced = !traced in
  let overhead = 100.0 *. ((traced /. Float.max 1e-9 untraced) -. 1.0) in
  Format.printf "@.tracing overhead on E9 (fig13 relink, loss=0.05, %d runs each):@." reps;
  Format.printf "  untraced %.3fs, traced %.3fs (%d events/run) -> %+.1f%% overhead %s@."
    untraced traced
    (!traced_events / reps)
    overhead
    (if overhead <= 10.0 then "(within the 10% budget)" else "(OVER the 10% budget)")

(* ------------------------------------------------------------------ *)
(* Allocation accounting (E12's fleet row, E15's phase profile)        *)

(* [Gc.quick_stat] deltas around a workload, on the calling domain —
   which is why only the jobs-1 fleet row is profiled: under more
   domains the shards' minor allocations land in their own counters.
   Collection counts stand in for pause times (no pause instrumentation
   in this container). *)
type gc_delta = {
  g_minor : float;  (* minor words allocated *)
  g_promoted : float;  (* of which promoted to the major heap *)
  g_minor_cols : int;
  g_major_cols : int;
}

let gc_measure f =
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let x = f () in
  let s1 = Gc.quick_stat () in
  ( x,
    {
      g_minor = s1.Gc.minor_words -. s0.Gc.minor_words;
      g_promoted = s1.Gc.promoted_words -. s0.Gc.promoted_words;
      g_minor_cols = s1.Gc.minor_collections - s0.Gc.minor_collections;
      g_major_cols = s1.Gc.major_collections - s0.Gc.major_collections;
    } )

let per_event x events = x /. float_of_int (max 1 events)

(* ------------------------------------------------------------------ *)
(* E12: the sharded many-session runtime                               *)

type e12_row = {
  f_jobs : int;
  f_wall : float;
  f_sessions_per_s : float;
  f_events_per_s : float;
  f_digest : string;  (* over every per-session outcome: must not vary with jobs *)
}

let e12_sessions = 128
let e12_job_counts = [ 1; 2; 4 ]
let e12_kernel_reps = 200

(* A fingerprint of every per-session result — ids, event counts, end
   times, and the full traces — so "deterministic across jobs" is
   checked on everything observable, not just the aggregate counters. *)
let e12_digest outcomes =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          (List.concat_map
             (fun (o : Session.outcome) ->
               Printf.sprintf "%d:%s:%d:%.6f:%d" o.Session.id o.Session.scenario
                 o.Session.events o.Session.end_time o.Session.violations
               :: List.map Mediactl_obs.Trace.event_to_json
                    (Mediactl_obs.Trace.Packed.to_events o.Session.trace))
             outcomes)))

let e12_write_json ~heap_s ~wheel_s ~kernel_agree ~alloc rows deterministic =
  let oc = open_out "BENCH_fleet.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"experiment\": \"e12\",\n";
  Printf.fprintf oc "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  Printf.fprintf oc
    "  \"kernel\": { \"runs\": %d, \"heap_s\": %.4f, \"wheel_s\": %.4f, \
     \"wheel_speedup\": %.3f, \"agree\": %b },\n"
    e12_kernel_reps heap_s wheel_s
    (heap_s /. Float.max 1e-9 wheel_s)
    kernel_agree;
  Printf.fprintf oc
    "  \"fleet\": { \"sessions\": %d, \"scenario\": \"mixed\", \"loss\": 0.05, \
     \"deterministic\": %b, \"rows\": [\n"
    e12_sessions deterministic;
  let base = (List.hd rows).f_wall in
  let last = List.length rows - 1 in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    { \"jobs\": %d, \"wall_s\": %.4f, \"sessions_per_s\": %.1f, \
         \"events_per_s\": %.0f, \"speedup\": %.2f }%s\n"
        r.f_jobs r.f_wall r.f_sessions_per_s r.f_events_per_s
        (base /. Float.max 1e-9 r.f_wall)
        (if i = last then "" else ","))
    rows;
  Printf.fprintf oc "  ] }";
  (match alloc with
  | None -> ()
  | Some (d, events) ->
    Printf.fprintf oc
      ",\n\
      \  \"alloc\": { \"jobs\": 1, \"events\": %d, \"minor_words_per_event\": %.1f, \
       \"promoted_words_per_event\": %.2f, \"minor_collections\": %d, \
       \"major_collections\": %d }"
      events
      (per_event d.g_minor events)
      (per_event d.g_promoted events)
      d.g_minor_cols d.g_major_cols);
  Printf.fprintf oc "\n}\n";
  close_out oc;
  Format.printf "@.wrote BENCH_fleet.json@."

let e12 () =
  header "E12  Sharded many-session runtime: timer wheel and domain scaling";
  (* Part 1: the engine's hot path.  The same E9 kernel (Figure-13
     relink, 5% loss, reliability layer, so the queue churns with
     retransmission timers) under the timer wheel and under the
     reference leftist heap.  The wheel must agree event-for-event and
     be no slower. *)
  let kernel_agree =
    List.for_all
      (fun seed ->
        let w, _ = fig13_impaired ~sched:Mediactl_sim.Engine.Wheel ~seed ~loss:0.05 () in
        let h, _ = fig13_impaired ~sched:Mediactl_sim.Engine.Heap ~seed ~loss:0.05 () in
        Float.equal w h)
      (List.init 25 (fun i -> 7000 + i))
  in
  let time sched =
    let t0 = Unix.gettimeofday () in
    for i = 1 to e12_kernel_reps do
      ignore (fig13_impaired ~sched ~seed:(6000 + i) ~loss:0.05 ())
    done;
    Unix.gettimeofday () -. t0
  in
  (* Warm both arms, then interleave-free timed passes. *)
  ignore (time Mediactl_sim.Engine.Heap);
  ignore (time Mediactl_sim.Engine.Wheel);
  let heap_s = time Mediactl_sim.Engine.Heap in
  let wheel_s = time Mediactl_sim.Engine.Wheel in
  Format.printf "scheduler on the E9 kernel (%d runs): heap %.3fs, wheel %.3fs (%.2fx)%s@."
    e12_kernel_reps heap_s wheel_s
    (heap_s /. Float.max 1e-9 wheel_s)
    (if kernel_agree then ", identical convergence latencies" else "  DISAGREE");
  (* Part 2: aggregate throughput of a mixed lossy fleet as domains are
     added, with the determinism guarantee checked on every row. *)
  let mk ~id ~rng = Scenario.session ~loss:0.05 Scenario.Mixed ~id ~rng in
  Format.printf "@.fleet of %d mixed sessions at 5%% loss (machine has %d recommended domains):@."
    e12_sessions
    (Domain.recommended_domain_count ());
  Format.printf "%6s %10s %14s %14s %9s@." "jobs" "wall s" "sessions/s" "events/s" "speedup";
  let alloc = ref None in
  let rows =
    List.map
      (fun jobs ->
        let (outcomes, summary), gc =
          gc_measure (fun () ->
              Fleet.run ~jobs ~until:60_000.0 ~sessions:e12_sessions ~seed:11 mk)
        in
        (* Allocation accounting is per-domain, so only the jobs-1 row
           (everything on this domain) is meaningful. *)
        if jobs = 1 then begin
          let events =
            List.fold_left (fun acc o -> acc + o.Session.events) 0 outcomes
          in
          alloc := Some (gc, events)
        end;
        {
          f_jobs = jobs;
          f_wall = summary.Fleet.wall_s;
          f_sessions_per_s = summary.Fleet.sessions_per_s;
          f_events_per_s = summary.Fleet.events_per_s;
          f_digest = e12_digest outcomes;
        })
      e12_job_counts
  in
  let base = (List.hd rows).f_wall in
  List.iter
    (fun r ->
      Format.printf "%6d %10.3f %14.1f %14.0f %8.2fx@." r.f_jobs r.f_wall r.f_sessions_per_s
        r.f_events_per_s
        (base /. Float.max 1e-9 r.f_wall))
    rows;
  let deterministic =
    match rows with
    | [] -> true
    | r :: rest -> List.for_all (fun r' -> r'.f_digest = r.f_digest) rest
  in
  Format.printf "per-session results across job counts: %s@."
    (if deterministic then "bit-identical (traces, end times, verdicts)"
     else "DIFFER — determinism bug");
  (match !alloc with
  | Some (d, events) ->
    Format.printf
      "allocation (jobs 1): %.1f minor words/event, %.2f promoted words/event, %d minor \
       / %d major GCs@."
      (per_event d.g_minor events)
      (per_event d.g_promoted events)
      d.g_minor_cols d.g_major_cols
  | None -> ());
  if !json_mode then
    e12_write_json ~heap_s ~wheel_s ~kernel_agree ~alloc:!alloc rows deterministic

(* ------------------------------------------------------------------ *)
(* E14: the wall-clock runtime                                         *)

module D_wallclock = Mediactl_daemon_core.Wallclock
module D_transport = Mediactl_daemon_core.Transport
module D_control = Mediactl_daemon_core.Control
module D_daemon = Mediactl_daemon_core.Daemon

(* The simulator is the ground truth the live loop is measured against:
   the same openslot--openslot engage the daemon performs, timed under
   [Timed.create].  The crossed opens cost one exchange more than the
   2n+3c relink of E1: bothFlowing lands at 3n + 4c, and the close
   handshake that follows is measured the same way. *)
let e14_sim_lifecycle ~n ~c =
  let sim = Timed.create ~n ~c (Pathlab.topology ()) in
  let flowing_at = ref nan and closed_at = ref nan in
  Timed.when_true sim (Pathlab.both_flowing ~flowlinks:0) (fun t -> flowing_at := t);
  Timed.apply sim (Pathlab.engage_left Semantics.Open_end);
  Timed.apply sim (Pathlab.engage_right Semantics.Open_end ~flowlinks:0);
  ignore (Timed.run sim);
  Timed.when_true sim (Pathlab.both_closed ~flowlinks:0) (fun t -> closed_at := t);
  Timed.apply sim (Pathlab.engage_left Semantics.Close_end);
  Timed.apply sim (Pathlab.engage_right Semantics.Close_end ~flowlinks:0);
  ignore (Timed.run sim);
  (!flowing_at, !closed_at -. !flowing_at)

(* The same engage on the live loop: [Wallclock.driver] is
   [Timed.create_external] over real timers, so the measured wall time
   minus the model time is exactly the loop's scheduling overhead. *)
let e14_wall_flowing ~n ~c =
  let loop = D_wallclock.create () in
  let drv = D_wallclock.driver ~n ~c loop (Pathlab.topology ()) in
  let at = ref nan in
  Timed.when_true drv (Pathlab.both_flowing ~flowlinks:0) (fun t ->
      at := t;
      D_wallclock.stop loop);
  Timed.apply drv (Pathlab.engage_left Semantics.Open_end);
  Timed.apply drv (Pathlab.engage_right Semantics.Open_end ~flowlinks:0);
  D_wallclock.run loop;
  !at

let e14_n = 10.0
let e14_c = 5.0
let e14_pings = 50

(* One in-process daemon on a Unix socket, with a scripted control
   client riding the daemon's own loop (the pattern the daemon test
   suite uses): per-request round trips timed at the client. *)
let e14_daemon_probe () =
  let path = Filename.temp_file "mediactl_bench" ".sock" in
  Unix.unlink path;
  let listener = D_transport.listen (D_transport.Unix_sock path) in
  let d = D_daemon.create ~n:e14_n ~c:e14_c ~listener () in
  let loop = D_daemon.loop d in
  let fd = D_transport.connect (D_transport.Unix_sock path) in
  let now () = Unix.gettimeofday () in
  let ping_rtts = ref [] in
  let create_sent = ref nan and flowing_s = ref nan in
  let teardown_sent = ref nan and closed_s = ref nan in
  let call_lines = ref [] and failures = ref [] in
  let wait what = D_control.Wait { id = "w1"; what; timeout_ms = 30_000.0 } in
  let script =
    ref
      (List.init e14_pings (fun _ ->
           (D_control.Ping, fun rtt -> ping_rtts := rtt :: !ping_rtts))
      @ [
          ( D_control.Create
              { id = "w1"; left = Semantics.Open_end; right = Semantics.Open_end },
            fun _ -> () );
          (wait `Flowing, fun _ -> flowing_s := now () -. !create_sent);
          (D_control.Teardown "w1", fun _ -> ());
          (wait `Closed, fun _ -> closed_s := now () -. !teardown_sent);
          (D_control.Status (Some "w1"), fun _ -> ());
          (D_control.Quit, fun _ -> ());
        ])
  in
  let sent_at = ref nan in
  let answer = ref (fun _ -> ()) in
  let send_next () =
    match !script with
    | (req, on_answer) :: rest ->
      script := rest;
      answer := on_answer;
      (match req with
      | D_control.Create _ -> create_sent := now ()
      | D_control.Teardown _ -> teardown_sent := now ()
      | _ -> ());
      sent_at := now ();
      D_transport.send_all fd (D_control.render req ^ "\n")
    | [] -> ()
  in
  let buf = ref "" in
  let on_line line =
    if D_control.final_line line then begin
      if not (D_control.is_ok line) then failures := line :: !failures;
      !answer (now () -. !sent_at);
      send_next ()
    end
    else call_lines := line :: !call_lines
  in
  let on_readable () =
    match D_transport.recv fd with
    | `Retry -> ()
    | `Eof -> D_wallclock.remove_fd loop fd
    | `Data data ->
      buf := !buf ^ data;
      let rec go () =
        match String.index_opt !buf '\n' with
        | Some i ->
          let line = String.sub !buf 0 i in
          buf := String.sub !buf (i + 1) (String.length !buf - i - 1);
          on_line line;
          go ()
        | None -> ()
      in
      go ()
  in
  D_wallclock.on_readable loop fd on_readable;
  send_next ();
  D_daemon.run d;
  D_transport.close_quiet fd;
  (!ping_rtts, !flowing_s, !closed_s, List.rev !call_lines, List.rev !failures)

let e14 () =
  header "E14  Wall-clock runtime: live select loop and daemon vs the model";
  Format.printf
    "@.bare Wallclock driver, openslot--openslot engage to bothFlowing (one run per row):@.";
  Format.printf "%8s %8s %10s %10s %10s %10s@." "n (ms)" "c (ms)" "model" "3n+4c" "wall"
    "overhead";
  List.iter
    (fun (n, c) ->
      let model, _ = e14_sim_lifecycle ~n ~c in
      let wall = e14_wall_flowing ~n ~c in
      Format.printf "%8.0f %8.0f %9.1fms %9.1fms %9.1fms %+9.2fms%s@." n c model
        ((3.0 *. n) +. (4.0 *. c))
        wall (wall -. model)
        (if abs_float (model -. ((3.0 *. n) +. (4.0 *. c))) < 1e-6 then "" else "  MISMATCH"))
    [ (2.0, 1.0); (5.0, 2.0); (10.0, 5.0); (paper_n, paper_c) ];
  let model_flowing, model_closed = e14_sim_lifecycle ~n:e14_n ~c:e14_c in
  let pings, flowing_s, closed_s, call_lines, failures = e14_daemon_probe () in
  let stats = Mediactl_sim.Stats.create () in
  List.iter (fun rtt -> Mediactl_sim.Stats.add stats (rtt *. 1e6)) pings;
  Format.printf
    "@.one daemon on a Unix socket (n=%.0f, c=%.0f), %d pings then a full local call:@."
    e14_n e14_c e14_pings;
  Format.printf "  ping round trip: mean %.0f us, p95 %.0f us, max %.0f us@."
    (Mediactl_sim.Stats.mean stats)
    (Mediactl_sim.Stats.percentile stats 0.95)
    (Mediactl_sim.Stats.max stats);
  Format.printf "  create  -> bothFlowing: %7.1f ms  (model %5.1f ms, %+5.2f ms daemon overhead)@."
    (flowing_s *. 1000.0) model_flowing
    ((flowing_s *. 1000.0) -. model_flowing);
  Format.printf "  teardown -> bothClosed: %7.1f ms  (model %5.1f ms, %+5.2f ms daemon overhead)@."
    (closed_s *. 1000.0) model_closed
    ((closed_s *. 1000.0) -. model_closed);
  List.iter (fun line -> Format.printf "  %s@." line) call_lines;
  (match failures with
  | [] -> Format.printf "  every control request answered OK@."
  | fs -> List.iter (fun f -> Format.printf "  FAILED: %s@." f) fs);
  Format.printf
    "@.the live loop reproduces the simulator's latencies to within select/timer@.";
  Format.printf
    "granularity, so the paper's analytic formulas apply unchanged to a real daemon.@."

(* ------------------------------------------------------------------ *)
(* E15: allocation profile of the hot path                             *)

let e15_reps = 400
let e15_sessions = 128

let e15 () =
  header "E15  Allocation profile: minor words per event on the hot path";
  (* Part 1: the two tracing arms over the same E9 kernel workload
     (Figure-13 relink under 5% loss with the reliability layer).  The
     delta between the ring arm and the untraced run is the allocation
     cost of observability itself, the zero-allocation claim under
     test. *)
  let run_once ~seed = ignore (fig13_impaired ~seed ~loss:0.05 ()) in
  for i = 1 to 20 do
    run_once ~seed:(8100 + i)
  done;
  let (), untraced =
    gc_measure (fun () ->
        for i = 1 to e15_reps do
          run_once ~seed:(8200 + i)
        done)
  in
  let ring_events = ref 0 in
  let (), ringed =
    gc_measure (fun () ->
        for i = 1 to e15_reps do
          let (), p =
            Mediactl_obs.Trace.recording_packed (fun () -> run_once ~seed:(8200 + i))
          in
          ring_events := !ring_events + Mediactl_obs.Trace.Packed.length p
        done)
  in
  Format.printf "@.tracing arms on the E9 kernel (fig13 relink, loss=0.05, %d runs each):@."
    e15_reps;
  Format.printf "%10s %14s %10s %12s %10s %10s@." "arm" "minor words" "w/event"
    "promoted/ev" "minor GCs" "major GCs";
  let row name d events =
    Format.printf "%10s %14.0f %10.1f %12.2f %10d %10d@." name d.g_minor
      (per_event d.g_minor events)
      (per_event d.g_promoted events)
      d.g_minor_cols d.g_major_cols
  in
  row "untraced" untraced !ring_events;
  row "ring" ringed !ring_events;
  let ring_cost = per_event (ringed.g_minor -. untraced.g_minor) !ring_events in
  Format.printf "tracing cost: ring %+.1f w/event@." ring_cost;
  (* Part 2: where a fleet session's allocations go.  [max_events 0]
     stops the timed drive before its first event, so that arm buys
     network build + untimed settle + boot (plus the analysis of the
     tiny settle trace); the analyze arm re-runs metrics and monitor
     replay over captured traces; the drive share is what remains of a
     full run. *)
  let mk ~id ~rng = Scenario.session ~loss:0.05 Scenario.Mixed ~id ~rng in
  let run_arm ?max_events () =
    gc_measure (fun () ->
        let total_events = ref 0 and total_trace = ref 0 in
        for id = 0 to e15_sessions - 1 do
          let s = mk ~id ~rng:(Mediactl_sim.Rng.create (9000 + id)) in
          let o = Session.run ~until:60_000.0 ?max_events s in
          total_events := !total_events + o.Session.events;
          total_trace := !total_trace + Mediactl_obs.Trace.Packed.length o.Session.trace
        done;
        (!total_events, !total_trace))
  in
  ignore (run_arm ());
  let (_ : int * int), setup = run_arm ~max_events:0 () in
  let (full_events, full_trace), full = run_arm () in
  let outcomes =
    List.init e15_sessions (fun id ->
        Session.run ~until:60_000.0 (mk ~id ~rng:(Mediactl_sim.Rng.create (9000 + id))))
  in
  let (), analyze =
    gc_measure (fun () ->
        List.iter
          (fun o ->
            ignore (Mediactl_obs.Metrics.of_packed o.Session.trace);
            ignore (Mediactl_obs.Monitor.replay_packed o.Session.trace))
          outcomes)
  in
  let drive_minor = Float.max 0.0 (full.g_minor -. setup.g_minor -. analyze.g_minor) in
  let share x = 100.0 *. x /. Float.max 1.0 full.g_minor in
  Format.printf
    "@.fleet session phases (%d mixed sessions at 5%% loss, %d engine events, %d trace \
     entries):@."
    e15_sessions full_events full_trace;
  Format.printf "%10s %14s %8s %10s@." "phase" "minor words" "share" "w/event";
  Format.printf "%10s %14.0f %7.1f%% %10.1f@." "setup" setup.g_minor (share setup.g_minor)
    (per_event setup.g_minor full_events);
  Format.printf "%10s %14.0f %7.1f%% %10.1f@." "drive" drive_minor (share drive_minor)
    (per_event drive_minor full_events);
  Format.printf "%10s %14.0f %7.1f%% %10.1f@." "analyze" analyze.g_minor
    (share analyze.g_minor)
    (per_event analyze.g_minor full_events);
  Format.printf "%10s %14.0f %7.1f%% %10.1f@." "total" full.g_minor 100.0
    (per_event full.g_minor full_events);
  if !json_mode then begin
    let oc = open_out "BENCH_alloc.json" in
    let arm name d events =
      Printf.sprintf
        "    { \"arm\": %S, \"minor_words\": %.0f, \"minor_words_per_event\": %.1f, \
         \"promoted_words_per_event\": %.2f, \"minor_collections\": %d, \
         \"major_collections\": %d }"
        name d.g_minor
        (per_event d.g_minor events)
        (per_event d.g_promoted events)
        d.g_minor_cols d.g_major_cols
    in
    Printf.fprintf oc
      "{\n\
      \  \"experiment\": \"e15\",\n\
      \  \"kernel_runs\": %d,\n\
      \  \"arms\": [\n\
       %s,\n\
       %s\n\
      \  ],\n\
      \  \"tracing_cost_w_per_event\": { \"ring\": %.1f },\n\
      \  \"fleet_phases\": { \"sessions\": %d, \"events\": %d, \"trace_entries\": %d,\n\
      \    \"setup_minor_words\": %.0f, \"drive_minor_words\": %.0f, \
       \"analyze_minor_words\": %.0f, \"total_minor_words\": %.0f,\n\
      \    \"total_minor_words_per_event\": %.1f }\n\
       }\n"
      e15_reps
      (arm "untraced" untraced !ring_events)
      (arm "ring" ringed !ring_events)
      ring_cost e15_sessions full_events full_trace setup.g_minor drive_minor
      analyze.g_minor full.g_minor
      (per_event full.g_minor full_events);
    close_out oc;
    Format.printf "@.wrote BENCH_alloc.json@."
  end

(* ------------------------------------------------------------------ *)
(* E16: steady-state churn                                             *)

(* How many sessions can stay resident in one process while arrivals
   and hangups keep turning the population over?  Each cell holds a
   target population for a churn horizon (shorter at the larger
   populations so the whole sweep stays CI-sized); the paper-relevant
   numbers are events/s against resident count, the max observed pause
   proxy, and the fleet digest — which must not move across job
   counts. *)

type e16_row = {
  ch_pop : int;
  ch_duration : float;
  ch_jobs : int;
  ch_wall : float;
  ch_started : int;
  ch_retired : int;
  ch_peak : int;
  ch_events : int;
  ch_events_per_s : float;
  ch_sessions_per_s : float;
  ch_max_pause_ms : float;
  ch_max_batch_ms : float;
  ch_minor_words : float;
  ch_minor_cols : int;
  ch_major_cols : int;
  ch_conformant : int;
  ch_satisfied : int;
  ch_digest : string;
}

let e16_cells = [ (1_000, 4_000.0); (10_000, 1_500.0); (100_000, 300.0) ]
let e16_job_counts = [ 1; 2; 4 ]
let e16_mean_holding = 4_000.0

let e16_run ~pop ~duration ~jobs =
  let mk ~id ~rng = Scenario.churn_session Scenario.Path ~id ~rng in
  let s =
    Fleet.churn ~jobs ~target_population:pop ~mean_holding:e16_mean_holding ~duration
      ~seed:11 mk
  in
  {
    ch_pop = pop;
    ch_duration = duration;
    ch_jobs = jobs;
    ch_wall = s.Fleet.c_wall_s;
    ch_started = s.Fleet.c_started;
    ch_retired = s.Fleet.c_retired;
    ch_peak = s.Fleet.c_peak_resident;
    ch_events = s.Fleet.c_engine_events;
    ch_events_per_s = s.Fleet.c_events_per_s;
    ch_sessions_per_s = s.Fleet.c_sessions_per_s;
    ch_max_pause_ms = s.Fleet.c_gc.Fleet.max_pause_s *. 1000.0;
    ch_max_batch_ms = s.Fleet.c_gc.Fleet.max_batch_s *. 1000.0;
    ch_minor_words = s.Fleet.c_gc.Fleet.minor_words;
    ch_minor_cols = s.Fleet.c_gc.Fleet.minor_collections;
    ch_major_cols = s.Fleet.c_gc.Fleet.major_collections;
    ch_conformant = s.Fleet.c_conformant;
    ch_satisfied = s.Fleet.c_satisfied;
    ch_digest = s.Fleet.c_digest;
  }

let e16_write_json rows deterministic =
  let oc = open_out "BENCH_churn.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"experiment\": \"e16\",\n";
  Printf.fprintf oc "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  Printf.fprintf oc "  \"scenario\": \"path\",\n";
  Printf.fprintf oc "  \"mean_holding_ms\": %.0f,\n" e16_mean_holding;
  Printf.fprintf oc "  \"deterministic\": %b,\n" deterministic;
  Printf.fprintf oc "  \"rows\": [\n";
  let last = List.length rows - 1 in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    { \"population\": %d, \"duration_ms\": %.0f, \"jobs\": %d, \"wall_s\": %.4f, \
         \"started\": %d, \"retired\": %d, \"peak_resident\": %d, \"events\": %d, \
         \"events_per_s\": %.0f, \"sessions_per_s\": %.1f, \"max_pause_ms\": %.3f, \
         \"max_quiet_batch_ms\": %.3f, \"minor_words\": %.0f, \"minor_collections\": %d, \
         \"major_collections\": %d, \"conformant\": %d, \"satisfied\": %d, \"digest\": \
         \"%s\" }%s\n"
        r.ch_pop r.ch_duration r.ch_jobs r.ch_wall r.ch_started r.ch_retired r.ch_peak
        r.ch_events r.ch_events_per_s r.ch_sessions_per_s r.ch_max_pause_ms
        r.ch_max_batch_ms r.ch_minor_words r.ch_minor_cols r.ch_major_cols r.ch_conformant
        r.ch_satisfied r.ch_digest
        (if i = last then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Format.printf "@.wrote BENCH_churn.json@."

let e16 () =
  header "E16  Churn: steady-state populations, slot recycling, GC pauses";
  Format.printf
    "path sessions, mean holding %.0f ms, arrivals at the steady-state rate (machine has \
     %d recommended domains):@."
    e16_mean_holding
    (Domain.recommended_domain_count ());
  Format.printf "%10s %5s %9s %9s %9s %12s %11s %11s@." "population" "jobs" "wall s"
    "started" "peak" "events/s" "pause ms" "quiet ms";
  let rows =
    List.concat_map
      (fun (pop, duration) ->
        let rows =
          List.map
            (fun jobs ->
              let r = e16_run ~pop ~duration ~jobs in
              Format.printf "%10d %5d %9.2f %9d %9d %12.0f %11.3f %11.3f@." r.ch_pop
                r.ch_jobs r.ch_wall r.ch_started r.ch_peak r.ch_events_per_s
                r.ch_max_pause_ms r.ch_max_batch_ms;
              r)
            e16_job_counts
        in
        (match rows with
        | r :: rest ->
          let same = List.for_all (fun r' -> r'.ch_digest = r.ch_digest) rest in
          Format.printf "%10d %5s digest %s across jobs %s@." pop ""
            (String.sub r.ch_digest 0 12)
            (if same then "(bit-identical)" else "DIFFERS — determinism bug")
        | [] -> ());
        rows)
      e16_cells
  in
  let deterministic =
    List.for_all
      (fun (pop, _) ->
        match List.filter (fun r -> r.ch_pop = pop) rows with
        | [] -> true
        | r :: rest -> List.for_all (fun r' -> r'.ch_digest = r.ch_digest) rest)
      e16_cells
  in
  let peak = List.fold_left (fun acc r -> max acc r.ch_peak) 0 rows in
  Format.printf "peak resident sessions in one process: %d; per-session digests %s@." peak
    (if deterministic then "independent of the job count"
     else "VARY with the job count — determinism bug");
  if !json_mode then e16_write_json rows deterministic

(* ------------------------------------------------------------------ *)
(* E17: N-party topologies — 3-party checking and the conference fleet *)

type e17_check_row = {
  n_name : string;
  n_states : int;
  n_transitions : int;
  n_terminals : int;
  n_seq_s : float;
  n_par_s : float;
  n_agree : bool;
  n_passed : bool;
}

let e17_jobs = 4
let e17_parties = 3
let e17_sessions = 256
let e17_job_counts = [ 1; 2; 4 ]
let e17_churn_pop = 500
let e17_churn_duration = 4_000.0

(* The N=3 star configurations: every leg an openslot facing the mixer,
   one interior flowlink per leg (clean, then under a loss+dup budget).
   The reachable space is the product of the three leg spaces coupled
   through the shared fault budgets, so these are the smallest
   conference models that still exercise every cross-leg interleaving
   class; EXPERIMENTS.md E17 records the larger chaos-1 sweep. *)
let e17_configs () =
  let parties = List.init e17_parties (fun _ -> Semantics.Open_end) in
  [
    PM.conf_config ~parties ~flowlinks:1 ~chaos:0 ~modifies:0 ();
    PM.conf_config
      ~faults:{ PM.losses = 1; dups = 1; unrestricted = false }
      ~parties ~flowlinks:1 ~chaos:0 ~modifies:0 ();
  ]

let e17_check config =
  let r1 = MC_check.run ~max_states:e10_cap ~jobs:1 config in
  let r4 = MC_check.run ~max_states:e10_cap ~jobs:e17_jobs config in
  {
    n_name = PM.config_name config;
    n_states = r1.MC_check.states;
    n_transitions = r1.MC_check.transitions;
    n_terminals = r1.MC_check.terminals;
    n_seq_s = r1.MC_check.time_s;
    n_par_s = r4.MC_check.time_s;
    n_agree =
      r1.MC_check.states = r4.MC_check.states
      && r1.MC_check.transitions = r4.MC_check.transitions
      && r1.MC_check.terminals = r4.MC_check.terminals
      && MC_check.passed r1 = MC_check.passed r4;
    n_passed = MC_check.passed r1;
  }

let e17_write_json checks fleet_rows fleet_det churn_rows churn_det =
  let rate s t = float_of_int s /. Float.max 1e-9 t in
  let seq = List.fold_left (fun acc r -> acc +. r.n_seq_s) 0.0 checks in
  let par = List.fold_left (fun acc r -> acc +. r.n_par_s) 0.0 checks in
  let oc = open_out "BENCH_conf.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"experiment\": \"e17\",\n";
  Printf.fprintf oc "  \"parties\": %d,\n" e17_parties;
  Printf.fprintf oc "  \"jobs\": %d,\n" e17_jobs;
  Printf.fprintf oc "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  Printf.fprintf oc
    "  \"note\": \"3-party star configs checked exhaustively at jobs:1 and jobs:%d \
     (agree = bit-identical counts and equal verdicts), plus the N-party conference \
     fleet and churn digests across job counts.\",\n"
    e17_jobs;
  Printf.fprintf oc "  \"checks\": [\n";
  let last = List.length checks - 1 in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    { \"config\": %S, \"states\": %d, \"transitions\": %d, \"terminals\": %d, \
         \"seq_s\": %.4f, \"par_s\": %.4f, \"seq_states_per_s\": %.0f, \
         \"par_states_per_s\": %.0f, \"agree\": %b, \"passed\": %b }%s\n"
        r.n_name r.n_states r.n_transitions r.n_terminals r.n_seq_s r.n_par_s
        (rate r.n_states r.n_seq_s) (rate r.n_states r.n_par_s) r.n_agree r.n_passed
        (if i = last then "" else ","))
    checks;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc
    "  \"check_totals\": { \"seq_s\": %.4f, \"par_s\": %.4f, \"all_agree\": %b, \
     \"all_passed\": %b },\n"
    seq par
    (List.for_all (fun r -> r.n_agree) checks)
    (List.for_all (fun r -> r.n_passed) checks);
  Printf.fprintf oc
    "  \"fleet\": { \"scenario\": \"conf\", \"sessions\": %d, \"deterministic\": %b, \
     \"rows\": [\n"
    e17_sessions fleet_det;
  let last = List.length fleet_rows - 1 in
  List.iteri
    (fun i (jobs, (s : Fleet.summary), digest) ->
      Printf.fprintf oc
        "    { \"jobs\": %d, \"wall_s\": %.4f, \"sessions_per_s\": %.1f, \
         \"events_per_s\": %.0f, \"conformant\": %d, \"satisfied\": %d, \"digest\": \
         \"%s\" }%s\n"
        jobs s.Fleet.wall_s s.Fleet.sessions_per_s s.Fleet.events_per_s s.Fleet.conformant
        s.Fleet.satisfied digest
        (if i = last then "" else ","))
    fleet_rows;
  Printf.fprintf oc "  ] },\n";
  Printf.fprintf oc
    "  \"churn\": { \"population\": %d, \"duration_ms\": %.0f, \"deterministic\": %b, \
     \"rows\": [\n"
    e17_churn_pop e17_churn_duration churn_det;
  let last = List.length churn_rows - 1 in
  List.iteri
    (fun i (jobs, (s : Fleet.churn_summary)) ->
      Printf.fprintf oc
        "    { \"jobs\": %d, \"wall_s\": %.4f, \"started\": %d, \"retired\": %d, \
         \"events_per_s\": %.0f, \"conformant\": %d, \"satisfied\": %d, \"digest\": \
         \"%s\" }%s\n"
        jobs s.Fleet.c_wall_s s.Fleet.c_started s.Fleet.c_retired s.Fleet.c_events_per_s
        s.Fleet.c_conformant s.Fleet.c_satisfied s.Fleet.c_digest
        (if i = last then "" else ","))
    churn_rows;
  Printf.fprintf oc "  ] }\n}\n";
  close_out oc;
  Format.printf "@.wrote BENCH_conf.json@."

let e17 () =
  header "E17  N-party topologies: 3-party checking and the conference fleet";
  Format.printf "3-party star configurations, exhaustive, jobs 1 vs %d:@.@." e17_jobs;
  Format.printf "%-40s %9s %9s | %8s %8s@." "config" "states" "trans" "seq" "par";
  let checks =
    List.map
      (fun config ->
        let r = e17_check config in
        Format.printf "%-40s %9d %9d | %7.2fs %7.2fs%s%s@." r.n_name r.n_states
          r.n_transitions r.n_seq_s r.n_par_s
          (if r.n_agree then "" else "  DISAGREE")
          (if r.n_passed then "" else "  FAILED");
        r)
      (e17_configs ())
  in
  Format.printf "@.conference fleet: %d sessions of %d-party conf, loss-free:@."
    e17_sessions e17_parties;
  Format.printf "%6s %10s %14s %14s@." "jobs" "wall s" "sessions/s" "events/s";
  let fleet_rows =
    List.map
      (fun jobs ->
        let outcomes, summary =
          Fleet.run ~jobs ~until:60_000.0 ~sessions:e17_sessions ~seed:11 (fun ~id ~rng ->
            Scenario.session ~parties:e17_parties Scenario.Conf ~id ~rng)
        in
        Format.printf "%6d %10.3f %14.1f %14.0f@." jobs summary.Fleet.wall_s
          summary.Fleet.sessions_per_s summary.Fleet.events_per_s;
        (jobs, summary, e12_digest outcomes))
      e17_job_counts
  in
  let fleet_det =
    match fleet_rows with
    | (_, _, d) :: rest -> List.for_all (fun (_, _, d') -> d' = d) rest
    | [] -> true
  in
  Format.printf "fleet digests across jobs: %s@."
    (if fleet_det then "bit-identical" else "DIFFER — determinism bug");
  Format.printf "@.conference churn: target %d resident, %.0f ms horizon:@." e17_churn_pop
    e17_churn_duration;
  let churn_rows =
    List.map
      (fun jobs ->
        let s =
          Fleet.churn ~jobs ~target_population:e17_churn_pop ~mean_holding:e16_mean_holding
            ~duration:e17_churn_duration ~seed:11 (fun ~id ~rng ->
              Scenario.churn_session ~parties:e17_parties Scenario.Conf ~id ~rng)
        in
        Format.printf "jobs %d: %d started / %d retired, digest %s@." jobs s.Fleet.c_started
          s.Fleet.c_retired
          (String.sub s.Fleet.c_digest 0 12);
        (jobs, s))
      e17_job_counts
  in
  let churn_det =
    match churn_rows with
    | (_, r) :: rest -> List.for_all (fun (_, r') -> r'.Fleet.c_digest = r.Fleet.c_digest) rest
    | [] -> true
  in
  Format.printf "churn digests across jobs: %s@."
    (if churn_det then "bit-identical" else "DIFFER — determinism bug");
  if !json_mode then e17_write_json checks fleet_rows fleet_det churn_rows churn_det

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks                                                    *)

(* ------------------------------------------------------------------ *)
(*  E18: lint runtime — the full interprocedural analysis over the    *)
(*  repo tree, gated in CI so the callgraph stays cheap enough to     *)
(*  run on every push.                                                *)

let e18_reps = 3

let e18_write_json ~files ~wall_s ~errors ~warnings ~allowed =
  let oc = open_out "BENCH_lint.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"experiment\": \"e18\",\n";
  Printf.fprintf oc
    "  \"note\": \"full mediactl_lint run (all rules; ALLOC001 parses the whole tree, \
     builds the callgraph and walks the hot-reachable set); wall_s is the best of %d \
     runs.\",\n"
    e18_reps;
  Printf.fprintf oc "  \"files\": %d,\n" files;
  Printf.fprintf oc "  \"wall_s\": %.4f,\n" wall_s;
  Printf.fprintf oc "  \"errors\": %d,\n" errors;
  Printf.fprintf oc "  \"warnings\": %d,\n" warnings;
  Printf.fprintf oc "  \"allowlisted\": %d\n" allowed;
  Printf.fprintf oc "}\n";
  close_out oc;
  Format.printf "@.wrote BENCH_lint.json@."

let e18 () =
  header "E18  lint runtime: interprocedural ALLOC001 over the full tree";
  let open Mediactl_lint_core in
  let timed () =
    let t0 = Unix.gettimeofday () in
    let report = Driver.run ~root:"." () in
    (report, Unix.gettimeofday () -. t0)
  in
  let report, first = timed () in
  let best = ref first in
  for _ = 2 to e18_reps do
    let _, dt = timed () in
    if dt < !best then best := dt
  done;
  let errors = List.length (Driver.errors report) in
  let warnings = List.length (Driver.warnings report) in
  let allowed = List.length report.Driver.allowed in
  Format.printf "%-24s %9s %9s %9s %9s %9s@." "" "files" "wall_s" "errors" "warns"
    "allowed";
  Format.printf "%-24s %9d %9.4f %9d %9d %9d@." "full run (best of 3)"
    report.Driver.files !best errors warnings allowed;
  if !json_mode then
    e18_write_json ~files:report.Driver.files ~wall_s:!best ~errors ~warnings ~allowed

let micro () =
  header "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  let local_a = Local.endpoint ~owner:"A" (Address.v "10.0.0.1" 5000) [ Codec.G711 ] in
  let local_b = Local.endpoint ~owner:"B" (Address.v "10.0.0.2" 5000) [ Codec.G711 ] in
  let open_hold flowlinks () =
    match
      Chain.create ~left:(Chain.Open_spec (local_a, Medium.Audio)) ~flowlinks
        ~right:(Chain.Hold_spec local_b) ()
    with
    | Ok chain -> ignore (Chain.run chain)
    | Error _ -> assert false
  in
  let slot_handshake () =
    let desc_b = Local.descriptor local_b in
    let s = Mediactl_protocol.Slot.create ~label:"a" Mediactl_protocol.Slot.Channel_initiator in
    match Mediactl_protocol.Slot.send_open s Medium.Audio (Local.descriptor local_a) with
    | Ok (s, _) -> (
      match Mediactl_protocol.Slot.receive s (Signal.Oack desc_b) with
      | Ok (s, _, _) ->
        ignore (Mediactl_protocol.Slot.send_select s (Local.selector_for local_a desc_b))
      | Error _ -> assert false)
    | Error _ -> assert false
  in
  let mc_small () =
    ignore
      (Mediactl_mc.Check.run
         (Mediactl_mc.Path_model.path_config ~left:Semantics.Open_end ~right:Semantics.Close_end
            ~flowlinks:0 ~chaos:0 ~modifies:0 ()))
  in
  let prepaid_replay () =
    let net = settle (Prepaid.build ()) in
    let net = settle (fst (Prepaid.snapshot1 net)) in
    let net = settle (fst (Prepaid.snapshot2 net)) in
    ignore (settle (fst (Prepaid.snapshot3 net)))
  in
  let tests =
    [
      Test.make ~name:"slot open/oack/select" (Staged.stage slot_handshake);
      Test.make ~name:"chain settle (0 flowlinks)" (Staged.stage (open_hold 0));
      Test.make ~name:"chain settle (2 flowlinks)" (Staged.stage (open_hold 2));
      Test.make ~name:"model-check open/close path" (Staged.stage mc_small);
      Test.make ~name:"prepaid snapshots 0-3" (Staged.stage prepaid_replay);
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  Format.printf "%-32s %16s@." "benchmark" "time/run";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            let pretty =
              if est > 1_000_000.0 then Printf.sprintf "%10.2f ms" (est /. 1_000_000.0)
              else if est > 1_000.0 then Printf.sprintf "%10.2f us" (est /. 1_000.0)
              else Printf.sprintf "%10.0f ns" est
            in
            Format.printf "%-32s %16s@." name pretty
          | Some _ | None -> Format.printf "%-32s %16s@." name "(no estimate)")
        analyzed)
    tests

(* ------------------------------------------------------------------ *)

let experiments =
  [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6); ("e7", e7);
    ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12); ("e14", e14);
    ("e15", e15); ("e16", e16); ("e17", e17); ("e18", e18); ("micro", micro) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let names = List.filter (fun a -> a <> "--json") args in
  json_mode := List.mem "--json" args;
  let requested =
    match names with
    | _ :: _ -> names
    | [] -> List.map fst experiments
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
        Format.printf "unknown experiment %S; available: %s@." name
          (String.concat ", " (List.map fst experiments)))
    requested
