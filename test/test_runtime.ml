(* Tests for the network runtime: Netsys topology and delivery, path
   extraction, the timed driver's latency model, the box-program DSL,
   and device behaviours. *)

open Mediactl_types
open Mediactl_core
open Mediactl_runtime

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let audio = [ Codec.G711; Codec.G726 ]
let local name host = Local.endpoint ~owner:name (Address.v host 5000) audio

let ok_err net =
  match Netsys.err net with
  | None -> ()
  | Some e -> Alcotest.failf "network error: %s" e

(* A two-endpoint network with k relay boxes, fully flowlinked. *)
let line k =
  let boxes = List.init k (fun i -> Printf.sprintf "S%d" i) in
  let net = List.fold_left Netsys.add_box Netsys.empty (("L" :: boxes) @ [ "R" ]) in
  let nodes = ("L" :: boxes) @ [ "R" ] in
  let rec connect net = function
    | a :: (b :: _ as rest) ->
      let net = Netsys.connect net ~chan:(a ^ "-" ^ b) ~initiator:a ~acceptor:b () in
      connect net rest
    | [ _ ] | [] -> net
  in
  let net = connect net nodes in
  let net =
    List.fold_left
      (fun net i ->
        let s = Printf.sprintf "S%d" i in
        let left = (if i = 0 then "L" else Printf.sprintf "S%d" (i - 1)) ^ "-" ^ s in
        let right = s ^ "-" ^ (if i = k - 1 then "R" else Printf.sprintf "S%d" (i + 1)) in
        fst
          (Netsys.bind_link net ~box:s ~id:"fl" { Netsys.chan = left; tun = 0 }
             { Netsys.chan = right; tun = 0 }))
      net
      (List.init k Fun.id)
  in
  let first_chan = "L-" ^ (match boxes with [] -> "R" | b :: _ -> b) in
  let last_chan = (match List.rev boxes with [] -> "L" | b :: _ -> b) ^ "-R" in
  (net, first_chan, last_chan)

let test_netsys_end_to_end () =
  let net, first_chan, last_chan = line 2 in
  let net, _ = Netsys.bind_hold net (Netsys.slot_ref ~box:"R" ~chan:last_chan ()) (local "R" "10.0.0.2") in
  let net, _ =
    Netsys.bind_open net (Netsys.slot_ref ~box:"L" ~chan:first_chan ()) (local "L" "10.0.0.1")
      Medium.Audio
  in
  let net, quiescent = Netsys.run net in
  ok_err net;
  check tbool "quiescent" true quiescent;
  let l = Option.get (Netsys.slot net (Netsys.slot_ref ~box:"L" ~chan:first_chan ())) in
  let r = Option.get (Netsys.slot net (Netsys.slot_ref ~box:"R" ~chan:last_chan ())) in
  check tbool "both flowing" true (Semantics.both_flowing ~left:l ~right:r)

let test_paths_extraction () =
  let net, first_chan, last_chan = line 3 in
  let net, _ = Netsys.bind_hold net (Netsys.slot_ref ~box:"R" ~chan:last_chan ()) (local "R" "10.0.0.2") in
  let net, _ =
    Netsys.bind_open net (Netsys.slot_ref ~box:"L" ~chan:first_chan ()) (local "L" "10.0.0.1")
      Medium.Audio
  in
  let paths = Paths.all net in
  check tint "one path" 1 (List.length paths);
  let p = List.hd paths in
  check tint "four tunnels" 4 p.Paths.tunnels;
  check tbool "spec" true
    (Paths.spec p = Some Semantics.Always_eventually_flowing);
  check tbool "find" true (Paths.find net ~a:"L" ~b:"R" <> None);
  check tbool "find miss" true (Paths.find net ~a:"L" ~b:"S0" = None)

let test_disconnect_dissolves_links () =
  let net, first_chan, last_chan = line 1 in
  ignore last_chan;
  let net = Netsys.disconnect net ~chan:first_chan in
  ok_err net;
  (* The relay's flowlink is gone; its surviving slot is unbound. *)
  check tbool "link dissolved" true (Netsys.find_link net ~box:"S0" ~id:"fl" = None);
  let survivor = Netsys.slot_ref ~box:"S0" ~chan:"S0-R" () in
  check tbool "survivor unbound" true (Netsys.binding net survivor = Some Netsys.Unbound)

let test_unbound_slot_is_passive () =
  (* An open reaching an unbound slot parks in the opened state; binding
     a holdslot later accepts it. *)
  let net = List.fold_left Netsys.add_box Netsys.empty [ "L"; "R" ] in
  let net = Netsys.connect net ~chan:"c" ~initiator:"L" ~acceptor:"R" () in
  let net, _ =
    Netsys.bind_open net (Netsys.slot_ref ~box:"L" ~chan:"c" ()) (local "L" "10.0.0.1")
      Medium.Audio
  in
  let net, _ = Netsys.run net in
  ok_err net;
  let r_ref = Netsys.slot_ref ~box:"R" ~chan:"c" () in
  check tbool "parked opened" true
    (Mediactl_protocol.Slot.is_opened (Option.get (Netsys.slot net r_ref)));
  let net, _ = Netsys.bind_hold net r_ref (local "R" "10.0.0.2") in
  let net, _ = Netsys.run net in
  ok_err net;
  check tbool "flows after answering" true
    (Mediactl_protocol.Slot.is_flowing (Option.get (Netsys.slot net r_ref)))

let test_netsys_misuse_is_recorded () =
  let net = Netsys.add_box Netsys.empty "A" in
  let net = Netsys.connect net ~chan:"c" ~initiator:"A" ~acceptor:"nowhere" () in
  check tbool "error recorded" true (Netsys.err net <> None);
  (* Operations on an erroneous network are no-ops, not crashes. *)
  let net2 = Netsys.add_box net "B" in
  check tbool "still first error" true (Netsys.err net2 = Netsys.err net)

(* --- timed driver ------------------------------------------------------ *)

let test_timed_open_latency () =
  (* Over one tunnel, the opener reaches flowing at 2n+3c: the open is
     emitted after compute c, transits n, and commits at the acceptor
     after another c; the oack retraces the path and commits at the
     opener after its own c (the paper's per-hop accounting). *)
  let net = List.fold_left Netsys.add_box Netsys.empty [ "L"; "R" ] in
  let net = Netsys.connect net ~chan:"c" ~initiator:"L" ~acceptor:"R" () in
  let net, _ = Netsys.bind_hold net (Netsys.slot_ref ~box:"R" ~chan:"c" ()) (local "R" "10.0.0.2") in
  let sim = Timed.create ~n:34.0 ~c:20.0 net in
  let flowing_at = ref nan in
  Timed.when_true sim
    (fun net ->
      match Netsys.slot net (Netsys.slot_ref ~box:"L" ~chan:"c" ()) with
      | Some slot -> Mediactl_protocol.Slot.is_flowing slot
      | None -> false)
    (fun t -> flowing_at := t);
  Timed.apply sim (fun net ->
      Netsys.bind_open net (Netsys.slot_ref ~box:"L" ~chan:"c" ()) (local "L" "10.0.0.1")
        Medium.Audio);
  let _ = Timed.run sim in
  check tbool "2n+3c" true (abs_float (!flowing_at -. 128.0) < 1e-6)

(* A fired timer must not stay reachable from its driver: a scripted
   action, and whatever its closure captures (a retransmit timer holds
   its frame), is garbage once it has run. *)
let test_timed_fired_timers_released () =
  let sim = Timed.create Netsys.empty in
  let fire () =
    let captured = Array.make 8 0 in
    Timed.after sim 1.0 (fun _ -> ignore (Sys.opaque_identity captured));
    ignore (Timed.run sim)
  in
  fire ();
  let after_one = Obj.reachable_words (Obj.repr sim) in
  for _ = 2 to 10_000 do
    fire ()
  done;
  let after_many = Obj.reachable_words (Obj.repr sim) in
  if after_many - after_one > 256 then
    Alcotest.failf "driver reaches %d words after 1 timer, %d after 10,000" after_one after_many

let test_timed_trace_is_chronological () =
  let net = List.fold_left Netsys.add_box Netsys.empty [ "L"; "R" ] in
  let net = Netsys.connect net ~chan:"c" ~initiator:"L" ~acceptor:"R" () in
  let net, _ = Netsys.bind_hold net (Netsys.slot_ref ~box:"R" ~chan:"c" ()) (local "R" "10.0.0.2") in
  let module T = Mediactl_obs.Trace in
  let (), packed =
    T.recording_packed (fun () ->
        let sim = Timed.create net in
        Timed.observe sim;
        Timed.apply sim (fun net ->
            Netsys.bind_open net (Netsys.slot_ref ~box:"L" ~chan:"c" ()) (local "L" "10.0.0.1")
              Medium.Audio);
        ignore (Timed.run sim))
  in
  let trace =
    List.filter_map
      (fun (e : T.event) ->
        match e.T.kind with T.Sig_recv s -> Some (e.T.at, s) | _ -> None)
      (T.Packed.to_events packed)
  in
  (* open, oack, select, select *)
  check tint "four signals" 4 (List.length trace);
  let rec sorted = function
    | [] | [ _ ] -> true
    | (a, _) :: ((b, _) :: _ as rest) -> a <= b && sorted rest
  in
  check tbool "chronological" true (sorted trace);
  check tbool "first is the open" true
    (match trace with
    | (_, s) :: _ -> Mediactl_types.Signal.name s.T.signal = "open" && s.T.box = "R"
    | [] -> false)

let prop_lines_settle =
  QCheck2.Test.make ~name:"flowlinked lines of any length settle to bothFlowing" ~count:60
    QCheck2.Gen.(int_range 0 5)
    (fun k ->
      let net, first_chan, last_chan = line k in
      let net, _ = Netsys.bind_hold net (Netsys.slot_ref ~box:"R" ~chan:last_chan ()) (local "R" "10.0.0.2") in
      let net, _ =
        Netsys.bind_open net (Netsys.slot_ref ~box:"L" ~chan:first_chan ()) (local "L" "10.0.0.1")
          Medium.Audio
      in
      let net, quiescent = Netsys.run net in
      quiescent && Netsys.err net = None
      &&
      match Paths.find net ~a:"L" ~b:"R" with
      | Some p -> (
        match Paths.flow net p with
        | Some flow -> Mediactl_media.Flow.two_way flow
        | None -> false)
      | None -> false)

let test_prepaid_path_census () =
  (* The prepaid network at snapshot 1 has exactly three signaling
     paths: A..C (through both servers), PBX..B (held), PC..V (held). *)
  let net = fst (Netsys.run (Mediactl_apps.Prepaid.build ())) in
  let net = fst (Netsys.run (fst (Mediactl_apps.Prepaid.snapshot1 net))) in
  let paths = Paths.all net in
  check tint "three paths" 3 (List.length paths);
  check tbool "A..C exists" true (Paths.find net ~a:"A" ~b:"C" <> None);
  check tbool "B's path ends at the PBX" true (Paths.find net ~a:"B" ~b:"PBX" <> None);
  check tbool "V's path ends at PC" true (Paths.find net ~a:"PC" ~b:"V" <> None)

(* --- program DSL -------------------------------------------------------- *)

let toy_program box target =
  let open Program in
  {
    box;
    face = Local.server ~owner:box;
    launch_actions =
      [
        Create_channel { chan = "x"; toward = target; tunnels = 1 };
        Set_timer { timer = "giveup"; after = 1000.0 };
      ];
    initial = "trying";
    states =
      [
        {
          s_name = "trying";
          annotations = [ Ann_open ("x", Medium.Audio) ];
          transitions =
            [
              { guard = Is_flowing "x"; actions = []; target = Some "talking" };
              {
                guard = On_timeout "giveup";
                actions = [ Destroy_channel "x" ];
                target = None;
              };
            ];
        };
        { s_name = "talking"; annotations = [ Ann_open ("x", Medium.Audio) ]; transitions = [] };
      ];
  }

let test_program_reaches_talking () =
  let net = List.fold_left Netsys.add_box Netsys.empty [ "app"; "phone" ] in
  let sim = Timed.create net in
  Device.install sim ~box:"phone" (local "U" "10.0.0.9") Device.Answers;
  let running = Program.launch sim (toy_program "app" "phone") in
  let _ = Timed.run ~until:5_000.0 sim in
  check tbool "no error" true (Timed.error sim = None);
  check tbool "talking" true (Program.current_state running = Some "talking");
  check tint "two states entered" 2 (List.length (Program.trace running))

let test_program_timeout_path () =
  let net = List.fold_left Netsys.add_box Netsys.empty [ "app"; "phone" ] in
  let sim = Timed.create net in
  Device.install sim ~box:"phone" (local "U" "10.0.0.9") Device.No_answer;
  let running = Program.launch sim (toy_program "app" "phone") in
  let _ = Timed.run ~until:5_000.0 sim in
  check tbool "no error" true (Timed.error sim = None);
  check tbool "terminated" true (Program.current_state running = None);
  check tbool "channel destroyed" false (Netsys.has_channel (Timed.net sim) "x")

let test_program_validation () =
  let bad = { (toy_program "app" "phone") with initial = "nowhere" } in
  check tbool "bad initial" true (Result.is_error (Program.validate bad));
  let good = toy_program "app" "phone" in
  check tbool "valid" true (Result.is_ok (Program.validate good))

let test_device_busy () =
  let net = List.fold_left Netsys.add_box Netsys.empty [ "app"; "phone" ] in
  let sim = Timed.create net in
  Device.install sim ~box:"phone" (local "U" "10.0.0.9") Device.Busy;
  let running = Program.launch sim (toy_program "app" "phone") in
  let _ = Timed.run ~until:5_000.0 sim in
  check tbool "no error" true (Timed.error sim = None);
  (* A closeslot rejects forever; the program times out and gives up. *)
  check tbool "terminated" true (Program.current_state running = None)

(* --- settle order ------------------------------------------------------- *)

(* An untimed settle delivers the pending signal of the least recently
   updated channel first (tunnels ascending, initiator end before
   acceptor end).  That order reaches every fleet digest; these pins
   make a change that breaks it fail with the receive sequence itself,
   not only with a digest mismatch. *)
let receives f =
  let module T = Mediactl_obs.Trace in
  let _, p = T.recording_packed f in
  List.filter_map
    (fun i ->
      if T.Packed.tag p i = 1 then
        Some (T.Packed.sig_chan p i, T.Packed.sig_tun p i, T.Packed.sig_box p i)
      else None)
    (List.init (T.Packed.length p) Fun.id)

let trecv = Alcotest.(list (triple string int string))

let test_settle_order_conference () =
  let users = Mediactl_apps.Conference.default_users 3 in
  let got = receives (fun () -> ignore (Netsys.run (Mediactl_apps.Conference.build ~users))) in
  check trecv "3-user conference, 24 deliveries"
    [
      ("u0-conf", 0, "conf"); ("u1-conf", 0, "conf"); ("u2-conf", 0, "conf");
      ("conf-bridge-u0", 0, "bridge"); ("conf-bridge-u1", 0, "bridge");
      ("conf-bridge-u2", 0, "bridge"); ("conf-bridge-u0", 0, "conf");
      ("conf-bridge-u1", 0, "conf"); ("conf-bridge-u2", 0, "conf");
      ("conf-bridge-u0", 0, "conf"); ("conf-bridge-u1", 0, "conf");
      ("conf-bridge-u2", 0, "conf"); ("u0-conf", 0, "u0"); ("u1-conf", 0, "u1");
      ("u2-conf", 0, "u2"); ("u0-conf", 0, "u0"); ("u1-conf", 0, "u1"); ("u2-conf", 0, "u2");
      ("u0-conf", 0, "conf"); ("u1-conf", 0, "conf"); ("u2-conf", 0, "conf");
      ("conf-bridge-u0", 0, "bridge"); ("conf-bridge-u1", 0, "bridge");
      ("conf-bridge-u2", 0, "bridge");
    ]
    got

let test_settle_order_collab_tv () =
  let got =
    receives (fun () ->
        let net, _ = Netsys.run (Mediactl_apps.Collab_tv.build ()) in
        ignore (Netsys.run (fst (Mediactl_apps.Collab_tv.daughter_leaves net))))
  in
  check trecv "collaborative tv built, then the daughter leaves"
    [
      ("mv", 0, "cbA"); ("mv", 1, "cbA"); ("mv", 2, "cbA"); ("tv", 0, "tvA"); ("mv", 3, "cbA");
      ("tv", 0, "cbA"); ("cc", 0, "cbC"); ("tv", 0, "cbA"); ("cc", 1, "cbC"); ("tv", 1, "tvA");
      ("mv", 0, "movie"); ("lp", 0, "lapC"); ("tv", 1, "cbA"); ("lp", 0, "cbC");
      ("tv", 1, "cbA"); ("lp", 0, "cbC"); ("mv", 0, "movie"); ("lp", 1, "lapC");
      ("cc", 0, "cbA"); ("lp", 1, "cbC"); ("mv", 0, "cbA"); ("lp", 1, "cbC");
      ("mv", 1, "movie"); ("tv", 0, "tvA"); ("cc", 0, "cbA"); ("cc", 1, "cbA");
      ("cc", 1, "cbA"); ("mv", 1, "movie"); ("mv", 1, "cbA"); ("mv", 2, "movie");
      ("tv", 1, "tvA"); ("mv", 2, "movie"); ("mv", 2, "cbA"); ("mv", 3, "movie");
      ("cc", 0, "cbC"); ("mv", 3, "movie"); ("lp", 0, "lapC"); ("mv", 3, "cbA");
      ("mv", 4, "cbA"); ("cc", 1, "cbC"); ("hp", 0, "headB"); ("lp", 1, "lapC");
      ("hp", 0, "cbA"); ("hp", 0, "cbA"); ("mv", 4, "movie"); ("mv", 4, "movie");
      ("mv", 4, "cbA"); ("hp", 0, "headB");
      (* the daughter leaves: cc is torn down, mv2 comes up *)
      ("mv", 2, "movie"); ("mv2", 0, "cbC"); ("mv", 2, "cbA"); ("mv2", 0, "movie");
      ("mv", 2, "movie"); ("mv2", 0, "cbC"); ("mv", 2, "cbA"); ("mv2", 0, "cbC");
      ("mv", 3, "movie"); ("mv2", 1, "cbC"); ("lp", 0, "lapC"); ("mv", 3, "cbA");
      ("mv2", 1, "movie"); ("lp", 0, "cbC"); ("mv", 3, "movie"); ("lp", 0, "lapC");
      ("mv2", 0, "movie"); ("mv", 3, "cbA"); ("mv2", 1, "cbC"); ("mv2", 1, "cbC");
      ("lp", 1, "lapC"); ("lp", 1, "cbC"); ("lp", 1, "lapC"); ("mv2", 1, "movie");
    ]
    got

let () =
  Alcotest.run "runtime"
    [
      ( "netsys",
        [
          Alcotest.test_case "end to end" `Quick test_netsys_end_to_end;
          Alcotest.test_case "paths" `Quick test_paths_extraction;
          Alcotest.test_case "disconnect dissolves" `Quick test_disconnect_dissolves_links;
          Alcotest.test_case "unbound passive" `Quick test_unbound_slot_is_passive;
          Alcotest.test_case "misuse recorded" `Quick test_netsys_misuse_is_recorded;
          Alcotest.test_case "settle order: conference" `Quick test_settle_order_conference;
          Alcotest.test_case "settle order: collab tv" `Quick test_settle_order_collab_tv;
        ] );
      ( "timed",
        [
          Alcotest.test_case "open latency" `Quick test_timed_open_latency;
          Alcotest.test_case "trace chronological" `Quick test_timed_trace_is_chronological;
          Alcotest.test_case "fired timers released" `Quick test_timed_fired_timers_released;
        ] );
      ( "paths",
        [
          Alcotest.test_case "prepaid census" `Quick test_prepaid_path_census;
          QCheck_alcotest.to_alcotest prop_lines_settle;
        ] );
      ( "program",
        [
          Alcotest.test_case "reaches talking" `Quick test_program_reaches_talking;
          Alcotest.test_case "timeout path" `Quick test_program_timeout_path;
          Alcotest.test_case "validation" `Quick test_program_validation;
          Alcotest.test_case "busy device" `Quick test_device_busy;
        ] );
    ]
