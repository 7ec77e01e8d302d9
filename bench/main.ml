(* The experiment harness: regenerates every evaluation artifact of the
   paper (see DESIGN.md section 4 and EXPERIMENTS.md).

     dune exec bench/main.exe               # all experiments
     dune exec bench/main.exe e3 e9         # a selection
     dune exec bench/main.exe e18 --json    # also write BENCH_lint.json

   E1  Figure 13 convergence latency (2n + 3c)
   E2  the latency formula p*n + (p+1)*c (section VIII-C)
   E3  SIP comparison (section IX-B, Figure 14)
   E4  model checking the 12 path models (section VIII-A)
   E5  Figure 2 vs Figure 3: erroneous vs compositional control
   E6  media clipping: relaxed vs eager synchronization (section VI-A)
   E7  concurrent modifies: idempotent vs transactional (section VI-C)
   E8  extension: hold/resume semantics over SIP (section XI)
   E9  convergence under loss: the reliability layer (mediactl.net)
   E11 observability: monitor verdicts under loss, tracing overhead
   E14 the wall-clock runtime: the live select loop and a real daemon
       against the simulator's analytic latencies
   E18 lint runtime: the whole-tree callgraph and ALLOC001 analysis
       (--json writes BENCH_lint.json, which CI gates)

   Throughput, allocation and pause are measured by the benchmark suite
   (python3 bench/suite/run.py). *)

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

(* ------------------------------------------------------------------ *)
(* E1: Figure 13                                                       *)

let fig13_latency ~n ~c =
  let a_tx, c_tx = Prepaid.fig13 ~n ~c (Prepaid.fig13_start ()) in
  Float.max a_tx c_tx

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
          let done_at =
            Relink.measure ~n:paper_n ~c:paper_c ~j (Relink.build ~boxes ~j)
          in
          let p = Relink.hops ~boxes ~j in
          let formula = Relink.formula ~p ~n:paper_n ~c:paper_c in
          Format.printf "%7d %4d %4d %12.1f %12.1f%s@." boxes j p done_at formula
            (if abs_float (done_at -. formula) < 1e-6 then "" else "  MISMATCH"))
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

(* [measure ~attach] over an impaired network with the reliability
   layer attached.  Returns the convergence latency (nan if the run
   never converged) and the layer's counters. *)
let impaired ~seed ~loss measure =
  let rel = ref None in
  let latency =
    measure ~attach:(fun sim ->
        let impair =
          Mediactl_net.Impair.create ~seed ~default:(Mediactl_net.Policy.lossy loss) ()
        in
        rel := Some (Mediactl_net.Reliable.attach impair sim))
  in
  (latency, Mediactl_net.Reliable.counters (Option.get !rel))

(* The Figure-13 two-box relink of E1 and a 3-box chain relink of E2. *)
let fig13_impaired ~seed ~loss =
  impaired ~seed ~loss (fun ~attach ->
      let a_tx, c_tx = Prepaid.fig13 ~n:paper_n ~c:paper_c ~attach (Prepaid.fig13_start ()) in
      Float.max a_tx c_tx)

let chain3_impaired ~seed ~loss =
  impaired ~seed ~loss (fun ~attach ->
      Relink.measure ~n:paper_n ~c:paper_c ~attach ~j:2 (Relink.build ~boxes:3 ~j:2))

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
  section "Figure-13 two-box relink" fig13_impaired ((2.0 *. paper_n) +. (3.0 *. paper_c));
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
(* E11: observability — monitor verdicts and tracing overhead          *)

(* A traced path run (the live counterpart of the checker's
   openslot--openslot model), returning the captured trace. *)
let e11_traced_path ~seed ~loss ~flowlinks =
  snd
    (Mediactl_obs.Trace.recording_packed (fun () ->
         let sim = Timed.create ~n:paper_n ~c:paper_c (Pathlab.topology ~flowlinks ()) in
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
  let run_once ~seed = ignore (fig13_impaired ~seed ~loss:0.05) in
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
(*  E18: lint runtime — the full interprocedural analysis over the    *)
(*  repo tree, gated in CI so the callgraph stays cheap enough to     *)
(*  run on every push.                                                *)

let e18_reps = 3
let json_mode = ref false

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

(* ------------------------------------------------------------------ *)

let experiments =
  [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6); ("e7", e7);
    ("e8", e8); ("e9", e9); ("e11", e11); ("e14", e14); ("e18", e18) ]

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
