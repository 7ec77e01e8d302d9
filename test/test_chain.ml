(* End-to-end tests of signaling paths: goal objects at both ends,
   flowlinks in the middle, tunnels in between (paper sections V-VII).
   Each path is a [Netsys] network laid out by [Pathlab] the way the
   model checker lays out its path configurations, so these run the
   executor that fleets, churn and the daemon run.  They check that
   each path type converges to the behaviour its temporal specification
   demands, under deterministic and random schedules, with mute changes
   and endpoint reprogramming. *)

open Mediactl_types
open Mediactl_protocol
open Mediactl_core
open Mediactl_runtime
open Mediactl_apps

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let addr_a = Address.v "10.0.0.1" 5000
let addr_b = Address.v "10.0.0.2" 5002

let local_a () = Local.endpoint ~owner:"A" addr_a [ Codec.G711; Codec.G726 ]
let local_b () = Local.endpoint ~owner:"B" addr_b [ Codec.G711; Codec.G729 ]

(* How a path end is programmed: the goal object its box binds to the
   end slot. *)
type end_spec =
  | Open_spec of Local.t
  | Close_spec
  | Hold_spec of Local.t

let open_a () = Open_spec (local_a ())
let open_b () = Open_spec (local_b ())
let hold_b () = Hold_spec (local_b ())
let hold_a () = Hold_spec (local_a ())

(* A path: its network, and the flowlink count that locates its right
   end. *)
type path = { net : Netsys.t; flowlinks : int }

let lend _ = Pathlab.left_slot
let rend p = Pathlab.right_slot ~flowlinks:p.flowlinks

let ok net =
  match Netsys.err net with
  | None -> net
  | Some e -> Alcotest.failf "network error: %s" e

(* Bind a goal to a path end, as a box program does when it changes
   state.  [Open_spec] requires the slot to be closed (the openslot
   precondition). *)
let reprogram p r spec =
  let net, _ =
    match spec with
    | Open_spec local -> Netsys.bind_open p.net r local Medium.Audio
    | Close_spec -> Netsys.bind_close p.net r
    | Hold_spec local -> Netsys.bind_hold p.net r local
  in
  { p with net = ok net }

let engage ~left ~right p = reprogram (reprogram p (lend p) left) (rend p) right

let make ~left ~flowlinks ~right () =
  engage ~left ~right { net = Pathlab.topology ~flowlinks (); flowlinks }

let modify p r mute =
  let net, _ = Netsys.modify p.net r mute in
  { p with net = ok net }

let deliver p send =
  match Netsys.deliver p.net send with
  | Some (net, _) -> { p with net = ok net }
  | None -> Alcotest.fail "a deliverable tunnel end had nothing to deliver"

let settle p =
  let net, quiescent = Netsys.run ~max_steps:10_000 p.net in
  let net = ok net in
  check tbool "quiescent" true quiescent;
  { p with net }

(* --- observations ------------------------------------------------------- *)

let slot p r =
  match Netsys.slot p.net r with Some s -> s | None -> Alcotest.fail "no slot at a path end"

let left_slot p = slot p (lend p)
let right_slot p = slot p (rend p)
let both_flowing p = Pathlab.both_flowing ~flowlinks:p.flowlinks p.net
let both_closed p = Pathlab.both_closed ~flowlinks:p.flowlinks p.net

let mute p r =
  match Netsys.binding p.net r with
  | Some (Netsys.End_b (End_goal.Open { local; _ } | End_goal.Hold { local })) ->
    Some local.Local.mute
  | Some (Netsys.End_b End_goal.Close | Netsys.Link_b _ | Netsys.Unbound) | None -> None

(* The section-V enabledness equations at the path ends; vacuously true
   when an end has no mute flags (closeslot). *)
let enabled_agrees p =
  match mute p (lend p), mute p (rend p) with
  | Some left_mute, Some right_mute ->
    (not (both_flowing p))
    || Semantics.enabled_agrees ~left_mute ~right_mute ~left:(left_slot p) ~right:(right_slot p)
  | (Some _ | None), _ -> true

(* The safety condition checked in quiescent states (paper section
   VIII-A): every slot on the path is closed or flowing. *)
let final_states_clean p =
  let clean (_, s) =
    match s.Slot.state with
    | Slot_state.Closed | Slot_state.Flowing -> true
    | Slot_state.Opening | Slot_state.Opened | Slot_state.Closing -> false
  in
  List.for_all (fun box -> List.for_all clean (Netsys.slots_of_box p.net box)) (Netsys.boxes p.net)

(* Every signal queued on the path: each pending tunnel end popped until
   it is empty. *)
let signals_in_flight p =
  let rec count net send n =
    match Netsys.take net send with None -> n | Some (_, net) -> count net send (n + 1)
  in
  List.fold_left (fun n send -> count p.net send n) 0 (Netsys.deliverables p.net)

(* --- convergence per path type, across flowlink counts --------------- *)

let assert_flowing p =
  check tbool "bothFlowing" true (both_flowing p);
  check tbool "enabled agrees" true (enabled_agrees p);
  check tbool "clean states" true (final_states_clean p)

let test_open_hold_flows flowlinks () =
  let p = make ~left:(open_a ()) ~flowlinks ~right:(hold_b ()) () in
  assert_flowing (settle p)

let test_open_open_flows flowlinks () =
  let p = make ~left:(open_a ()) ~flowlinks ~right:(open_b ()) () in
  assert_flowing (settle p)

let test_close_close_stays_closed flowlinks () =
  let p = make ~left:Close_spec ~flowlinks ~right:Close_spec () in
  let p = settle p in
  check tbool "bothClosed" true (both_closed p)

let test_close_hold_stays_closed flowlinks () =
  let p = make ~left:Close_spec ~flowlinks ~right:(hold_b ()) () in
  let p = settle p in
  check tbool "bothClosed" true (both_closed p)

let test_hold_hold_stays_closed flowlinks () =
  (* Nobody asks to open: the disjunctive spec is satisfied by
     remaining closed. *)
  let p = make ~left:(hold_a ()) ~flowlinks ~right:(hold_b ()) () in
  let p = settle p in
  check tbool "bothClosed" true (both_closed p)

(* Deliver the first pending signal [steps] times, or until none is
   pending, checking after each delivery that the path is not
   bothFlowing. *)
let rec never_flows label p steps =
  if steps > 0 then
    match Netsys.deliverables p.net with
    | [] -> ()
    | send :: _ ->
      let p = deliver p send in
      check tbool label false (both_flowing p);
      never_flows label p (steps - 1)

let test_open_close_never_flows flowlinks () =
  (* This path never quiesces (the openslot keeps retrying), but it
     must never reach bothFlowing. *)
  let p = make ~left:(open_a ()) ~flowlinks ~right:Close_spec () in
  never_flows "never bothFlowing" p 200

(* --- open race (both ends open simultaneously) ----------------------- *)

let test_open_open_race_no_flowlink () =
  (* A single tunnel with opens from both ends: the initiator side wins
     and the path still converges to bothFlowing. *)
  let p = make ~left:(open_a ()) ~flowlinks:0 ~right:(open_b ()) () in
  check tint "two opens in flight" 2 (signals_in_flight p);
  assert_flowing (settle p)

let test_open_open_race_initiator_right () =
  let net = List.fold_left Netsys.add_box Netsys.empty [ "L"; "R" ] in
  let net = Netsys.connect net ~chan:"ch0" ~initiator:"R" ~acceptor:"L" () in
  let p = engage ~left:(open_a ()) ~right:(open_b ()) { net; flowlinks = 0 } in
  assert_flowing (settle p)

(* --- mute behaviour --------------------------------------------------- *)

let test_mute_out_stops_media () =
  let p = make ~left:(open_a ()) ~flowlinks:1 ~right:(hold_b ()) () in
  let p = settle p in
  assert_flowing p;
  let p = modify p (lend p) Mute.out_only in
  let p = settle p in
  check tbool "bothFlowing again" true (both_flowing p);
  check tbool "enabled agrees" true (enabled_agrees p);
  (* Right end no longer receives: L muted its output. *)
  check tbool "right rx off" false (Slot.rx_enabled (right_slot p));
  check tbool "left rx on" true (Slot.rx_enabled (left_slot p))

let test_mute_in_stops_reception () =
  let p = make ~left:(open_a ()) ~flowlinks:1 ~right:(hold_b ()) () in
  let p = settle p in
  let p = modify p (rend p) Mute.in_only in
  let p = settle p in
  check tbool "bothFlowing" true (both_flowing p);
  check tbool "enabled agrees" true (enabled_agrees p);
  check tbool "right rx off" false (Slot.rx_enabled (right_slot p));
  check tbool "left rx on" true (Slot.rx_enabled (left_slot p))

let test_unmute_restores () =
  let p = make ~left:(open_a ()) ~flowlinks:1 ~right:(hold_b ()) () in
  let p = settle p in
  let p = modify p (lend p) Mute.both in
  let p = settle p in
  check tbool "no media either way" true
    ((not (Slot.rx_enabled (left_slot p))) && not (Slot.rx_enabled (right_slot p)));
  let p = modify p (lend p) Mute.none in
  let p = settle p in
  check tbool "restored" true (Slot.rx_enabled (left_slot p) && Slot.rx_enabled (right_slot p));
  assert_flowing p

let test_concurrent_modifies_converge () =
  (* Idempotent describes/selects travelling in opposite directions do
     not constrain each other (paper section VI-C). *)
  let p = make ~left:(open_a ()) ~flowlinks:1 ~right:(open_b ()) () in
  let p = settle p in
  let p = modify p (lend p) Mute.out_only in
  let p = modify p (rend p) Mute.out_only in
  let p = settle p in
  check tbool "bothFlowing" true (both_flowing p);
  check tbool "enabled agrees" true (enabled_agrees p);
  check tbool "silent both ways" true
    ((not (Slot.rx_enabled (left_slot p))) && not (Slot.rx_enabled (right_slot p)))

(* --- reprogramming (box program state changes) ------------------------ *)

let test_reprogram_hold_to_close () =
  let p = make ~left:(open_a ()) ~flowlinks:1 ~right:(hold_b ()) () in
  let p = settle p in
  let p = reprogram p (rend p) Close_spec in
  (* Now an open/close path: it never flows again. *)
  never_flows "never flows again" p 300

let test_reprogram_close_to_hold_then_flow () =
  let p = make ~left:(open_a ()) ~flowlinks:1 ~right:Close_spec () in
  (* Let the first reject happen. *)
  let net, _ = Netsys.run ~max_steps:40 p.net in
  let p = { p with net = ok net } in
  check tbool "not flowing" false (both_flowing p);
  (* The right box program changes its mind; reprogramming is legal
     whenever the slot is closed at that moment.  Retry a few times
     because the openslot keeps re-opening. *)
  let rec try_reprogram p attempts =
    if attempts = 0 then Alcotest.fail "never found a closed moment"
    else if Slot.is_closed (right_slot p) then reprogram p (rend p) (hold_b ())
    else
      match Netsys.deliverables p.net with
      | [] -> Alcotest.fail "stuck"
      | send :: _ -> try_reprogram (deliver p send) (attempts - 1)
  in
  let p = try_reprogram p 100 in
  assert_flowing (settle p)

(* --- random schedules -------------------------------------------------- *)

let random_settle rng p max_steps =
  let rec loop p steps =
    if steps >= max_steps then (p, false)
    else
      match Netsys.deliverables p.net with
      | [] -> (p, true)
      | choices ->
        let send = List.nth choices (Random.State.int rng (List.length choices)) in
        loop (deliver p send) (steps + 1)
  in
  loop p 0

let prop_random_schedule_converges =
  QCheck2.Test.make ~name:"open/hold converges under any schedule" ~count:200
    QCheck2.Gen.(pair (int_range 0 3) int)
    (fun (flowlinks, seed) ->
      let rng = Random.State.make [| seed |] in
      let p = make ~left:(open_a ()) ~flowlinks ~right:(hold_b ()) () in
      let p, quiescent = random_settle rng p 2000 in
      quiescent && both_flowing p && enabled_agrees p && final_states_clean p)

let prop_random_modifies_converge =
  QCheck2.Test.make ~name:"random mutes still reconverge to bothFlowing" ~count:150
    QCheck2.Gen.(triple (int_range 0 2) int (list_size (int_range 1 4) (pair bool (pair bool bool))))
    (fun (flowlinks, seed, modifies) ->
      let rng = Random.State.make [| seed |] in
      let p = make ~left:(open_a ()) ~flowlinks ~right:(open_b ()) () in
      let p, _ = random_settle rng p 2000 in
      let p =
        List.fold_left
          (fun p (left_end, (mi, mo)) ->
            let which = if left_end then lend p else rend p in
            let p = modify p which { Mute.mute_in = mi; mute_out = mo } in
            fst (random_settle rng p 2000))
          p modifies
      in
      let p, quiescent = random_settle rng p 2000 in
      quiescent && both_flowing p && enabled_agrees p)

let prop_close_paths_close =
  QCheck2.Test.make ~name:"paths with a closing end finish bothClosed" ~count:200
    QCheck2.Gen.(triple (int_range 0 3) int bool)
    (fun (flowlinks, seed, hold_at_right) ->
      let rng = Random.State.make [| seed |] in
      let right = if hold_at_right then hold_b () else Close_spec in
      let p = make ~left:Close_spec ~flowlinks ~right () in
      let p, quiescent = random_settle rng p 2000 in
      quiescent && both_closed p)

let prop_reprogram_storm =
  (* Endpoints are reprogrammed repeatedly at random moments with random
     goals (as box programs changing state do); whatever the history, the
     path must still satisfy the specification of its FINAL goals. *)
  QCheck2.Test.make ~name:"reprogram storms still converge to the final spec" ~count:100
    QCheck2.Gen.(triple (int_range 0 2) int (list_size (int_range 1 5) (pair bool (int_range 0 2))))
    (fun (flowlinks, seed, reprograms) ->
      let rng = Random.State.make [| seed |] in
      let p = make ~left:(open_a ()) ~flowlinks ~right:(hold_b ()) () in
      let goal_of = function
        | 0 -> hold_b ()
        | 1 -> Close_spec
        | _ -> open_b ()
      in
      let p =
        List.fold_left
          (fun p (left_end, goal_ix) ->
            let p, _ = random_settle rng p (1 + Random.State.int rng 40) in
            let which = if left_end then lend p else rend p in
            match goal_of goal_ix with
            (* openSlot requires a closed slot; skip illegal moments. *)
            | Open_spec _ when not (Slot.is_closed (slot p which)) -> p
            | spec -> reprogram p which spec)
          p reprograms
      in
      (* Make the final configuration deterministic: openslot vs holdslot. *)
      let p = if Slot.is_closed (left_slot p) then reprogram p (lend p) (open_a ()) else p in
      let p = reprogram p (rend p) (hold_b ()) in
      match Netsys.binding p.net (lend p) with
      | Some (Netsys.End_b (End_goal.Open _)) ->
        let p, quiescent = random_settle rng p 4000 in
        quiescent && both_flowing p && final_states_clean p
      | Some (Netsys.End_b (End_goal.Close | End_goal.Hold _) | Netsys.Link_b _ | Netsys.Unbound)
      | None ->
        (* The left slot was not closed when we tried to re-open it:
           it is under an earlier goal; just require clean settling. *)
        let p, quiescent = random_settle rng p 4000 in
        quiescent || final_states_clean p)

let prop_flowlink_transparency =
  (* Section III-A: a path of a given type can have any number of tunnels
     and flowlinks, as these should be transparent with respect to
     observable behaviour.  Drive identical endpoint histories over paths
     with 0 and k flowlinks; the observable endpoint states (protocol
     state, media enablement per direction, negotiated codec) must agree. *)
  QCheck2.Test.make ~name:"flowlinks are observationally transparent" ~count:200
    QCheck2.Gen.(triple (int_range 1 3) int (list_size (int_range 0 4) (pair bool (pair bool bool))))
    (fun (k, seed, modifies) ->
      let run flowlinks =
        let rng = Random.State.make [| seed |] in
        let p = make ~left:(open_a ()) ~flowlinks ~right:(hold_b ()) () in
        let p, _ = random_settle rng p 4000 in
        let p =
          List.fold_left
            (fun p (left_end, (mi, mo)) ->
              let which = if left_end then lend p else rend p in
              let p = modify p which { Mute.mute_in = mi; mute_out = mo } in
              fst (random_settle rng p 4000))
            p modifies
        in
        let p, quiescent = random_settle rng p 4000 in
        let observe slot =
          Slot.(slot.state, tx_enabled slot, rx_enabled slot, tx_codec slot, rx_codec slot)
        in
        (quiescent, observe (left_slot p), observe (right_slot p))
      in
      run 0 = run k)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_random_schedule_converges; prop_random_modifies_converge; prop_close_paths_close;
      prop_reprogram_storm; prop_flowlink_transparency;
    ]

let with_links name f =
  List.map
    (fun k -> Alcotest.test_case (Printf.sprintf "%s (%d flowlinks)" name k) `Quick (f k))
    [ 0; 1; 2; 3 ]

let () =
  Alcotest.run "chain"
    [
      ( "convergence",
        with_links "open/hold flows" test_open_hold_flows
        @ with_links "open/open flows" test_open_open_flows
        @ with_links "close/close closed" test_close_close_stays_closed
        @ with_links "close/hold closed" test_close_hold_stays_closed
        @ with_links "hold/hold closed" test_hold_hold_stays_closed
        @ with_links "open/close never flows" test_open_close_never_flows );
      ( "races",
        [
          Alcotest.test_case "open race, initiator left" `Quick test_open_open_race_no_flowlink;
          Alcotest.test_case "open race, initiator right" `Quick test_open_open_race_initiator_right;
        ] );
      ( "mute",
        [
          Alcotest.test_case "mute out" `Quick test_mute_out_stops_media;
          Alcotest.test_case "mute in" `Quick test_mute_in_stops_reception;
          Alcotest.test_case "unmute restores" `Quick test_unmute_restores;
          Alcotest.test_case "concurrent modifies" `Quick test_concurrent_modifies_converge;
        ] );
      ( "reprogram",
        [
          Alcotest.test_case "hold to close" `Quick test_reprogram_hold_to_close;
          Alcotest.test_case "close to hold" `Quick test_reprogram_close_to_hold_then_flow;
        ] );
      ("random schedules", qcheck_cases);
    ]
