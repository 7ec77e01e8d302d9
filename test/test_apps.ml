(* Tests for the application layer: the prepaid scenario (Figures 2/3/13),
   Click-to-Dial (Figure 6), conferencing (Figure 7), collaborative TV
   (Figure 8), and the relink latency laboratory. *)

open Mediactl_types
open Mediactl_core
open Mediactl_runtime
open Mediactl_apps

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let settle net =
  let net, quiescent = Netsys.run net in
  check tbool "quiescent" true quiescent;
  (match Netsys.err net with
  | None -> ()
  | Some e -> Alcotest.failf "network error: %s" e);
  net

let edges_equal label expected actual =
  let show l = String.concat ", " (List.map (fun (a, b) -> a ^ "->" ^ b) l) in
  check Alcotest.string label (show (List.sort_uniq compare expected)) (show actual)

(* --- prepaid (Figures 2 and 3) ---------------------------------------- *)

let test_prepaid_snapshots () =
  let net = settle (Prepaid.build ()) in
  edges_equal "initial" (Prepaid.expected_flows 0) (Prepaid.flows net);
  let net = settle (fst (Prepaid.snapshot1 net)) in
  edges_equal "snapshot 1" (Prepaid.expected_flows 1) (Prepaid.flows net);
  let net = settle (fst (Prepaid.snapshot2 net)) in
  edges_equal "snapshot 2" (Prepaid.expected_flows 2) (Prepaid.flows net);
  let net = settle (fst (Prepaid.snapshot3 net)) in
  edges_equal "snapshot 3" (Prepaid.expected_flows 3) (Prepaid.flows net);
  let net, _ = Prepaid.snapshot4_pc net in
  let net, _ = Prepaid.snapshot4_pbx net in
  let net = settle net in
  edges_equal "snapshot 4" (Prepaid.expected_flows 4) (Prepaid.flows net)

let test_prepaid_fig13_latency () =
  (* Figure 13: concurrent relinks converge in 2n + 3c (128 ms at the
     paper's n = 34, c = 20), over E1's grid. *)
  let start = Prepaid.fig13_start () in
  List.iter
    (fun (n, c) ->
      let a_tx, c_tx = Prepaid.fig13 ~n ~c start in
      let at label t =
        check tbool
          (Printf.sprintf "%s at 2n+3c (n=%g, c=%g)" label n c)
          true
          (abs_float (t -. ((2.0 *. n) +. (3.0 *. c))) < 1e-6)
      in
      at "A toward C" a_tx;
      at "C toward A" c_tx)
    [ (34.0, 20.0); (10.0, 5.0); (50.0, 20.0); (100.0, 1.0); (1.0, 100.0) ]

let test_naive_reproduces_fig2_anomalies () =
  let m = Naive.initial () in
  edges_equal "naive snapshot 1" [ ("A", "C"); ("C", "A") ] (Naive.flows m);
  let m = Naive.snapshot m 2 in
  edges_equal "naive snapshot 2" [ ("C", "V"); ("V", "C") ] (Naive.flows m);
  let m = Naive.snapshot m 3 in
  (* Anomaly 1: V loses its input; the C-V channel is one-way (while A
     and B talk normally). *)
  edges_equal "naive snapshot 3" [ ("A", "B"); ("B", "A"); ("V", "C") ] (Naive.flows m);
  check tbool "one-way anomaly reported" true
    (List.exists
       (fun s -> String.length s > 0 && String.sub s 0 5 = "the C")
       (Naive.anomalies m));
  let m = Naive.snapshot m 4 in
  (* Anomalies 2 and 3: A switched without permission; B transmits into
     the void. *)
  check tbool "B wasted" true (List.mem ("B", "A") (Naive.wasted m));
  check tbool "anomalies present" true (List.length (Naive.anomalies m) >= 2)

let test_compositional_has_no_anomalies () =
  (* The same four snapshots under the primitives never leave a one-way
     channel or a wasted transmission between endpoints. *)
  let steps = [ Prepaid.snapshot1; Prepaid.snapshot2; Prepaid.snapshot3 ] in
  let net = settle (Prepaid.build ()) in
  let net =
    List.fold_left
      (fun net step ->
        let net = settle (fst (step net)) in
        List.iter
          (fun flow ->
            check tbool "no one-way flow" false (Mediactl_media.Flow.one_way flow))
          (Paths.flows net);
        net)
      net steps
  in
  ignore net

let random_settle rng net max_steps =
  let rec loop net steps =
    if steps >= max_steps then (net, false)
    else
      match Netsys.deliverables net with
      | [] -> (net, true)
      | sends -> (
        let send = List.nth sends (Random.State.int rng (List.length sends)) in
        match Netsys.deliver net send with
        | Some (net, _) -> loop net (steps + 1)
        | None -> (net, true))
  in
  loop net 0

let prop_prepaid_any_interleaving =
  (* The Figure-3 snapshots must come out right under ANY interleaving of
     signal deliveries across the five channels, not just the
     deterministic drain order. *)
  QCheck2.Test.make ~name:"prepaid snapshots correct under any delivery order" ~count:100
    QCheck2.Gen.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let settle net = fst (random_settle rng net 4000) in
      let net = settle (Prepaid.build ()) in
      let ok0 = Prepaid.flows net = Prepaid.expected_flows 0 in
      let net = settle (fst (Prepaid.snapshot1 net)) in
      let ok1 = Prepaid.flows net = Prepaid.expected_flows 1 in
      let net = settle (fst (Prepaid.snapshot2 net)) in
      let ok2 = Prepaid.flows net = Prepaid.expected_flows 2 in
      let net = settle (fst (Prepaid.snapshot3 net)) in
      let ok3 = Prepaid.flows net = Prepaid.expected_flows 3 in
      let net, _ = Prepaid.snapshot4_pc net in
      let net, _ = Prepaid.snapshot4_pbx net in
      let net = settle net in
      let ok4 = Prepaid.flows net = Prepaid.expected_flows 4 in
      Netsys.err net = None && ok0 && ok1 && ok2 && ok3 && ok4)

(* --- click to dial ------------------------------------------------------ *)

let ctd_scenario behavior =
  let net = List.fold_left Netsys.add_box Netsys.empty [ "ctd"; "phone1"; "phone2"; "tones" ] in
  let sim = Timed.create ~n:10.0 ~c:5.0 net in
  let local name = Local.endpoint ~owner:name (Address.v "10.0.0.7" 5000) [ Codec.G711 ] in
  Device.install sim ~box:"phone1" (local "U1") Device.Answers;
  Device.install sim ~box:"phone2" (local "U2") behavior;
  Device.install sim ~box:"tones" (local "T") Device.Answers;
  let running =
    Program.launch sim
      (Click_to_dial.program ~box:"ctd" ~caller_device:"phone1" ~callee_device:"phone2"
         ~tone_server:"tones" ~no_answer_timeout:30_000.0)
  in
  (sim, running)

let test_ctd_connects () =
  let sim, running = ctd_scenario Device.Answers in
  let _ = Timed.run ~until:10_000.0 sim in
  check tbool "no error" true (Timed.error sim = None);
  check tbool "connected" true (Program.current_state running = Some "connected");
  edges_equal "talking"
    [ ("phone1", "phone2"); ("phone2", "phone1") ]
    (Mediactl_media.Flow.edges (Paths.flows (Timed.net sim)))

let test_ctd_busy_tone () =
  let sim, running = ctd_scenario Device.Busy in
  let _ = Timed.run ~until:10_000.0 sim in
  check tbool "no error" true (Timed.error sim = None);
  check tbool "busy tone state" true (Program.current_state running = Some "busyTone");
  edges_equal "hearing busy tone"
    [ ("phone1", "tones"); ("tones", "phone1") ]
    (Mediactl_media.Flow.edges (Paths.flows (Timed.net sim)))

let test_ctd_caller_never_answers () =
  let net = List.fold_left Netsys.add_box Netsys.empty [ "ctd"; "phone1"; "phone2"; "tones" ] in
  let sim = Timed.create ~n:10.0 ~c:5.0 net in
  let local name = Local.endpoint ~owner:name (Address.v "10.0.0.7" 5000) [ Codec.G711 ] in
  Device.install sim ~box:"phone1" (local "U1") Device.No_answer;
  Device.install sim ~box:"phone2" (local "U2") Device.Answers;
  Device.install sim ~box:"tones" (local "T") Device.Answers;
  let running =
    Program.launch sim
      (Click_to_dial.program ~box:"ctd" ~caller_device:"phone1" ~callee_device:"phone2"
         ~tone_server:"tones" ~no_answer_timeout:2_000.0)
  in
  let _ = Timed.run ~until:10_000.0 sim in
  check tbool "no error" true (Timed.error sim = None);
  check tbool "gave up" true (Program.current_state running = None);
  check tbool "channel destroyed" false (Netsys.has_channel (Timed.net sim) Click_to_dial.chan_one)

let test_ctd_caller_hangs_up_mid_setup () =
  let sim, running = ctd_scenario Device.Answers in
  let _ = Timed.run ~until:10_000.0 sim in
  Device.hang_up sim ~box:"phone1" ~chan:Click_to_dial.chan_one;
  let _ = Timed.run ~until:20_000.0 sim in
  check tbool "terminated after hangup" true (Program.current_state running = None);
  check tbool "channels gone" false
    (Netsys.has_channel (Timed.net sim) Click_to_dial.chan_one
    || Netsys.has_channel (Timed.net sim) Click_to_dial.chan_two)

(* --- conference --------------------------------------------------------- *)

let conf_users () =
  List.map
    (fun (name, host) -> (name, Local.endpoint ~owner:name (Address.v host 5000) [ Codec.G711 ]))
    [ ("alice", "10.0.1.1"); ("bob", "10.0.1.2"); ("carol", "10.0.1.3") ]

let test_conference_legs () =
  let net = settle (Conference.build ~users:(conf_users ())) in
  let expected =
    List.concat_map
      (fun (u, _) -> [ (u, "bridge"); ("bridge", u) ])
      (conf_users ())
  in
  edges_equal "all legs flowing" expected (Conference.flows net)

let test_conference_full_mute () =
  let net = settle (Conference.build ~users:(conf_users ())) in
  let net = settle (fst (Conference.full_mute ~user:"bob" net)) in
  let expected =
    [ ("alice", "bridge"); ("bridge", "alice"); ("carol", "bridge"); ("bridge", "carol") ]
  in
  edges_equal "bob muted" expected (Conference.flows net);
  let net = settle (fst (Conference.unmute ~user:"bob" net)) in
  check tint "restored" 6 (List.length (Conference.flows net))

let participants = [ "alice"; "bob"; "carol" ]

let hears matrix listener speaker =
  match List.assoc_opt listener matrix with
  | Some row -> List.assoc_opt speaker row
  | None -> None

let test_mixing_business () =
  let m = Conference.mixing_matrix (Conference.Business [ "carol" ]) ~participants in
  check tbool "carol dropped" true (hears m "alice" "carol" = None);
  check tbool "alice heard" true (hears m "bob" "alice" = Some 1.0);
  check tbool "carol still hears" true (hears m "carol" "alice" = Some 1.0)

let test_mixing_emergency () =
  let m =
    Conference.mixing_matrix
      (Conference.Emergency { calltaker = "alice"; caller = "bob"; responder = "carol" })
      ~participants
  in
  (* The caller is heard by everyone but hears only the calltaker. *)
  check tbool "caller heard" true (hears m "carol" "bob" = Some 1.0);
  check tbool "caller hears calltaker" true (hears m "bob" "alice" = Some 1.0);
  check tbool "caller cannot hear responder" true (hears m "bob" "carol" = None)

let test_mixing_whisper () =
  let m =
    Conference.mixing_matrix
      (Conference.Whisper { trainee = "alice"; customer = "bob"; coach = "carol" })
      ~participants
  in
  check tbool "customer cannot hear coach" true (hears m "bob" "carol" = None);
  check tbool "trainee hears whispered coach" true (hears m "alice" "carol" = Some 0.3);
  check tbool "coach hears customer" true (hears m "carol" "bob" = Some 1.0)

let test_matrix_metas () =
  let metas = Conference.matrix_metas (Conference.Business [ "carol" ]) ~participants in
  check tint "one row per listener" (List.length participants) (List.length metas);
  match metas with
  | (chan, Meta.Info row) :: _ ->
    (* The first row belongs to the first listener and rides that
       listener's bridge channel. *)
    check Alcotest.string "rides the listener's bridge channel"
      (Conference.bridge_chan "alice") chan;
    check Alcotest.string "policy and gains rendered" "mix/business alice<-bob:1.00" row
  | _ -> Alcotest.fail "expected Info metas on bridge channels"

let test_barge_in_and_hangup () =
  let users = Conference.default_users 2 in
  let net = settle (Conference.build ~users) in
  check tint "two legs flowing" 4 (List.length (Conference.flows net));
  let joiner = List.nth (Conference.default_users 3) 2 in
  let net = settle (fst (Conference.add_user ~user:joiner ~port:6004 net)) in
  let u2 = fst joiner in
  let fl = Conference.flows net in
  check tint "three legs after barge-in" 6 (List.length fl);
  check tbool "joiner flowing both ways" true
    (List.mem (u2, "bridge") fl && List.mem ("bridge", u2) fl);
  let net = settle (fst (Conference.hangup_user ~user:u2 net)) in
  edges_equal "back to two legs after hangup"
    [ ("u0", "bridge"); ("bridge", "u0"); ("u1", "bridge"); ("bridge", "u1") ]
    (Conference.flows net)

(* --- feature chains ------------------------------------------------------ *)

let test_transfer_rewires () =
  let net = settle (Feature.transfer_build ()) in
  edges_equal "customer--agent established"
    [ ("cust", "agent"); ("agent", "cust") ]
    (Feature.flows net);
  let net = settle (fst (Feature.transfer net)) in
  edges_equal "customer--supervisor after transfer"
    [ ("cust", "sup"); ("sup", "cust") ]
    (Feature.flows net)

let test_moh_hold_resume () =
  let net = settle (Feature.moh_build ()) in
  edges_equal "talking" [ ("cust", "agent"); ("agent", "cust") ] (Feature.flows net);
  let net = settle (fst (Feature.hold net)) in
  edges_equal "music while held" [ ("cust", "music"); ("music", "cust") ] (Feature.flows net);
  let net = settle (fst (Feature.resume net)) in
  edges_equal "talking again" [ ("cust", "agent"); ("agent", "cust") ] (Feature.flows net)

(* --- collaborative tv ---------------------------------------------------- *)

let test_collab_tv_streams () =
  let net = settle (Collab_tv.build ()) in
  edges_equal "five streams to three devices" Collab_tv.expected_flows_together
    (Collab_tv.flows net)

let test_collab_tv_pause_play () =
  let net = settle (Collab_tv.build ()) in
  let net = settle (fst (Collab_tv.pause net)) in
  check tint "paused: nothing flows" 0 (List.length (Collab_tv.flows net));
  let net = settle (fst (Collab_tv.play net)) in
  edges_equal "resumed" Collab_tv.expected_flows_together (Collab_tv.flows net)

let test_collab_tv_daughter_leaves () =
  let net = settle (Collab_tv.build ()) in
  let net = settle (fst (Collab_tv.daughter_leaves net)) in
  edges_equal "independent viewing" Collab_tv.expected_flows_apart (Collab_tv.flows net);
  check tbool "collaboration channel gone" false (Netsys.has_channel net "cc")

(* --- relink laboratory ---------------------------------------------------- *)

let test_relink_matches_formula () =
  let n = 34.0 and c = 20.0 in
  List.iter
    (fun (boxes, j) ->
      let net = Relink.build ~boxes ~j in
      check tbool "setup quiescent" true (Netsys.deliverables net = []);
      let p = Relink.hops ~boxes ~j in
      check tbool
        (Printf.sprintf "boxes=%d j=%d" boxes j)
        true
        (abs_float (Relink.measure ~n ~c ~j net -. Relink.formula ~p ~n ~c) < 1e-6))
    [ (1, 1); (2, 1); (3, 2); (4, 1); (4, 4); (5, 3) ]

let () =
  Alcotest.run "apps"
    [
      ( "prepaid",
        [
          Alcotest.test_case "figure 3 snapshots" `Quick test_prepaid_snapshots;
          Alcotest.test_case "figure 13 latency" `Quick test_prepaid_fig13_latency;
          Alcotest.test_case "figure 2 anomalies (naive)" `Quick test_naive_reproduces_fig2_anomalies;
          Alcotest.test_case "no anomalies (compositional)" `Quick test_compositional_has_no_anomalies;
        ] );
      ( "click-to-dial",
        [
          Alcotest.test_case "connects" `Quick test_ctd_connects;
          Alcotest.test_case "busy tone" `Quick test_ctd_busy_tone;
          Alcotest.test_case "caller never answers" `Quick test_ctd_caller_never_answers;
          Alcotest.test_case "caller hangs up" `Quick test_ctd_caller_hangs_up_mid_setup;
        ] );
      ( "conference",
        [
          Alcotest.test_case "legs" `Quick test_conference_legs;
          Alcotest.test_case "full mute" `Quick test_conference_full_mute;
          Alcotest.test_case "business mix" `Quick test_mixing_business;
          Alcotest.test_case "emergency mix" `Quick test_mixing_emergency;
          Alcotest.test_case "whisper mix" `Quick test_mixing_whisper;
          Alcotest.test_case "matrix meta-signals" `Quick test_matrix_metas;
          Alcotest.test_case "barge-in and hangup" `Quick test_barge_in_and_hangup;
        ] );
      ( "collaborative tv",
        [
          Alcotest.test_case "streams" `Quick test_collab_tv_streams;
          Alcotest.test_case "pause/play" `Quick test_collab_tv_pause_play;
          Alcotest.test_case "daughter leaves" `Quick test_collab_tv_daughter_leaves;
        ] );
      ( "features",
        [
          Alcotest.test_case "attended transfer rewires" `Quick test_transfer_rewires;
          Alcotest.test_case "music on hold and resume" `Quick test_moh_hold_resume;
        ] );
      ("relink", [ Alcotest.test_case "latency formula" `Quick test_relink_matches_formula ]);
      ("interleavings", [ QCheck_alcotest.to_alcotest prop_prepaid_any_interleaving ]);
    ]
