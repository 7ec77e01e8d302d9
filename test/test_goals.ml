(* Tests for the four goal primitives driven directly: openSlot,
   closeSlot, holdSlot on single slots, and flowLink on pairs of slots
   in various inherited states (paper sections IV and VII). *)

open Mediactl_types
open Mediactl_protocol
open Mediactl_core

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let addr_a = Address.v "10.0.0.1" 5000
let addr_b = Address.v "10.0.0.2" 5002

let local_a = Local.endpoint ~owner:"A" addr_a [ Codec.G711; Codec.G726 ]
let local_b = Local.endpoint ~owner:"B" addr_b [ Codec.G711 ]

let desc_b = Local.descriptor local_b

let ok_goal = function
  | Ok x -> x
  | Error e -> Alcotest.failf "goal error: %s" (Goal_error.to_string e)

let ok_slot = function
  | Ok x -> x
  | Error e -> Alcotest.failf "slot error: %s" (Slot.error_to_string e)

let fresh ?(role = Slot.Channel_initiator) label = Slot.create ~label role

let signal_names out = List.map Signal.name out

(* --- openSlot -------------------------------------------------------- *)

let test_open_slot_start () =
  let o = ok_goal (End_goal.open_slot local_a Medium.Audio (fresh "a")) in
  check tbool "emits open" true (signal_names o.End_goal.out = [ "open" ]);
  check tbool "opening" true (Slot.is_opening o.End_goal.slot);
  match o.End_goal.out with
  | [ Signal.Open (m, d) ] ->
    check tbool "audio" true (Medium.equal m Medium.Audio);
    check tbool "real descriptor" true (Descriptor.offers_media d)
  | _ -> Alcotest.fail "expected a single open"

let test_open_slot_precondition () =
  let slot = fresh "a" in
  let slot, _, _ = ok_slot (Slot.receive slot (Signal.Open (Medium.Audio, desc_b))) in
  match End_goal.open_slot local_a Medium.Audio slot with
  | Error (Goal_error.Precondition _) -> ()
  | Error (Goal_error.Protocol _) -> Alcotest.fail "wrong error kind"
  | Ok _ -> Alcotest.fail "openSlot must require a closed slot"

let test_open_slot_muted_descriptor () =
  let muted = Local.endpoint' ~owner:"A" ~mute:Mute.in_only addr_a [ Codec.G711 ] in
  let o = ok_goal (End_goal.open_slot muted Medium.Audio (fresh "a")) in
  match o.End_goal.out with
  | [ Signal.Open (_, d) ] -> check tbool "noMedia" false (Descriptor.offers_media d)
  | _ -> Alcotest.fail "expected open"

let test_open_slot_retries_after_reject () =
  let o = ok_goal (End_goal.open_slot local_a Medium.Audio (fresh "a")) in
  let o = ok_goal (End_goal.on_signal o.End_goal.goal o.End_goal.slot Signal.Close) in
  (* closeack for their close, then a fresh open *)
  check tbool "closeack then open" true
    (signal_names o.End_goal.out = [ "closeack"; "open" ]);
  check tbool "opening again" true (Slot.is_opening o.End_goal.slot)

let test_open_slot_answers_oack () =
  let o = ok_goal (End_goal.open_slot local_a Medium.Audio (fresh "a")) in
  let o = ok_goal (End_goal.on_signal o.End_goal.goal o.End_goal.slot (Signal.Oack desc_b)) in
  check tbool "select answer" true (signal_names o.End_goal.out = [ "select" ]);
  check tbool "flowing" true (Slot.is_flowing o.End_goal.slot);
  check tbool "tx enabled" true (Slot.tx_enabled o.End_goal.slot)

let test_open_slot_accepts_peer_open () =
  (* The openslot takes every opportunity to reach flowing: if the peer
     opens first, accept rather than insist on our own open. *)
  let o = ok_goal (End_goal.open_slot local_a Medium.Audio (fresh "a")) in
  let o = ok_goal (End_goal.on_signal o.End_goal.goal o.End_goal.slot Signal.Close) in
  (* Now opening again; peer rejected.  Suppose the peer now closes us
     into closed and sends its own open: simulate on a fresh goal. *)
  let o2 =
    ok_goal (End_goal.open_slot local_a Medium.Audio (fresh ~role:Slot.Channel_acceptor "a2"))
  in
  let o2 =
    ok_goal
      (End_goal.on_signal o2.End_goal.goal o2.End_goal.slot
         (Signal.Open (Medium.Audio, desc_b)))
  in
  (* Race, acceptor side: back off and accept. *)
  check tbool "oack+select" true (signal_names o2.End_goal.out = [ "oack"; "select" ]);
  check tbool "flowing" true (Slot.is_flowing o2.End_goal.slot);
  ignore o

let test_open_slot_modify_while_flowing () =
  let o = ok_goal (End_goal.open_slot local_a Medium.Audio (fresh "a")) in
  let o = ok_goal (End_goal.on_signal o.End_goal.goal o.End_goal.slot (Signal.Oack desc_b)) in
  let o = ok_goal (End_goal.modify o.End_goal.goal o.End_goal.slot Mute.out_only) in
  check tbool "describe+select" true (signal_names o.End_goal.out = [ "describe"; "select" ]);
  check tbool "tx now muted" false (Slot.tx_enabled o.End_goal.slot)

let test_open_slot_modify_while_opening () =
  let o = ok_goal (End_goal.open_slot local_a Medium.Audio (fresh "a")) in
  let o = ok_goal (End_goal.modify o.End_goal.goal o.End_goal.slot Mute.in_only) in
  check tint "nothing sent" 0 (List.length o.End_goal.out);
  match o.End_goal.goal with
  | End_goal.Open { local; _ } ->
    check tbool "mute recorded" true (Mute.equal local.Local.mute Mute.in_only)
  | End_goal.Close | End_goal.Hold _ -> Alcotest.fail "expected an openslot"

(* --- holdSlot -------------------------------------------------------- *)

let test_hold_slot_waits () =
  let h = ok_goal (End_goal.hold_slot local_b (fresh ~role:Slot.Channel_acceptor "b")) in
  check tint "no emission" 0 (List.length h.End_goal.out);
  check tbool "still closed" true (Slot.is_closed h.End_goal.slot)

let test_hold_slot_accepts () =
  let h = ok_goal (End_goal.hold_slot local_b (fresh ~role:Slot.Channel_acceptor "b")) in
  let h =
    ok_goal
      (End_goal.on_signal h.End_goal.goal h.End_goal.slot
         (Signal.Open (Medium.Audio, Local.descriptor local_a)))
  in
  check tbool "oack+select" true (signal_names h.End_goal.out = [ "oack"; "select" ]);
  check tbool "flowing" true (Slot.is_flowing h.End_goal.slot)

let test_hold_slot_accepts_inherited_opened () =
  (* Gaining control of a slot that is already opened: accept at once. *)
  let slot = fresh ~role:Slot.Channel_acceptor "b" in
  let slot, _, _ =
    ok_slot (Slot.receive slot (Signal.Open (Medium.Audio, Local.descriptor local_a)))
  in
  let h = ok_goal (End_goal.hold_slot local_b slot) in
  check tbool "oack+select" true (signal_names h.End_goal.out = [ "oack"; "select" ])

let test_hold_slot_stays_closed_after_peer_close () =
  let h = ok_goal (End_goal.hold_slot local_b (fresh ~role:Slot.Channel_acceptor "b")) in
  let h =
    ok_goal
      (End_goal.on_signal h.End_goal.goal h.End_goal.slot
         (Signal.Open (Medium.Audio, Local.descriptor local_a)))
  in
  let h = ok_goal (End_goal.on_signal h.End_goal.goal h.End_goal.slot Signal.Close) in
  check tbool "just the closeack" true (signal_names h.End_goal.out = [ "closeack" ]);
  check tbool "closed" true (Slot.is_closed h.End_goal.slot)

let test_hold_slot_answers_describe () =
  let h = ok_goal (End_goal.hold_slot local_b (fresh ~role:Slot.Channel_acceptor "b")) in
  let h =
    ok_goal
      (End_goal.on_signal h.End_goal.goal h.End_goal.slot
         (Signal.Open (Medium.Audio, Local.descriptor local_a)))
  in
  let new_desc = Descriptor.make ~owner:"A" ~version:5 addr_a [ Codec.G726 ] in
  let h = ok_goal (End_goal.on_signal h.End_goal.goal h.End_goal.slot (Signal.Describe new_desc)) in
  check tbool "select in answer" true (signal_names h.End_goal.out = [ "select" ]);
  match h.End_goal.slot.Slot.sent_sel with
  | Some sel -> check tbool "answers v5" true (Selector.responds_to_descriptor sel new_desc)
  | None -> Alcotest.fail "expected a sent selector"

let test_hold_slot_modify_while_flowing () =
  let h = ok_goal (End_goal.hold_slot local_b (fresh ~role:Slot.Channel_acceptor "b")) in
  let h =
    ok_goal
      (End_goal.on_signal h.End_goal.goal h.End_goal.slot
         (Signal.Open (Medium.Audio, Local.descriptor local_a)))
  in
  let h = ok_goal (End_goal.modify h.End_goal.goal h.End_goal.slot Mute.out_only) in
  check tbool "describe+select" true (signal_names h.End_goal.out = [ "describe"; "select" ]);
  check tbool "still flowing" true (Slot.is_flowing h.End_goal.slot);
  check tbool "tx now muted" false (Slot.tx_enabled h.End_goal.slot);
  match h.End_goal.goal with
  | End_goal.Hold { local } ->
    check tbool "mute recorded" true (Mute.equal local.Local.mute Mute.out_only)
  | End_goal.Open _ | End_goal.Close -> Alcotest.fail "expected a holdslot"

(* --- closeSlot ------------------------------------------------------- *)

let test_close_slot_closes_flowing () =
  let slot = fresh "x" in
  let slot, _ = ok_slot (Slot.send_open slot Medium.Audio (Local.descriptor local_a)) in
  let slot, _, _ = ok_slot (Slot.receive slot (Signal.Oack desc_b)) in
  let c = ok_goal (End_goal.close_slot slot) in
  check tbool "close" true (signal_names c.End_goal.out = [ "close" ]);
  check tbool "closing" true (Slot.is_closing c.End_goal.slot)

let test_close_slot_idle_when_closed () =
  let c = ok_goal (End_goal.close_slot (fresh "x")) in
  check tint "nothing" 0 (List.length c.End_goal.out)

let test_close_slot_rejects_opens () =
  let c = ok_goal (End_goal.close_slot (fresh ~role:Slot.Channel_acceptor "x")) in
  let c =
    ok_goal
      (End_goal.on_signal c.End_goal.goal c.End_goal.slot
         (Signal.Open (Medium.Audio, Local.descriptor local_a)))
  in
  check tbool "immediate reject" true (signal_names c.End_goal.out = [ "close" ]);
  let c = ok_goal (End_goal.on_signal c.End_goal.goal c.End_goal.slot Signal.Closeack) in
  check tbool "closed" true (Slot.is_closed c.End_goal.slot)

(* --- any-state starts ------------------------------------------------ *)

(* An acceptor slot driven into one of the five Fig. 9 states by the
   peer's open (carrying A's descriptor) and this end's own sends. *)
let slot_in state =
  let slot = fresh ~role:Slot.Channel_acceptor "s" in
  let opened () =
    let slot, _, _ =
      ok_slot (Slot.receive slot (Signal.Open (Medium.Audio, Local.descriptor local_a)))
    in
    slot
  in
  let flowing () = fst (ok_slot (Slot.send_oack (opened ()) desc_b)) in
  match state with
  | Slot_state.Closed -> slot
  | Slot_state.Opening -> fst (ok_slot (Slot.send_open slot Medium.Audio desc_b))
  | Slot_state.Opened -> opened ()
  | Slot_state.Flowing -> flowing ()
  | Slot_state.Closing -> fst (ok_slot (Slot.send_close (flowing ())))

(* The any-state start of each end kind, which a box or the checker
   uses when a goal takes over a slot whose state it did not choose:
   kind, slot state before, signals emitted, slot state after. *)
let engage_table =
  let open Slot_state in
  let accept = [ "oack"; "select" ] and re_describe = [ "describe"; "select" ] in
  [
    (Semantics.Open_end, Closed, [ "open" ], Opening);
    (Semantics.Open_end, Opening, [], Opening);
    (Semantics.Open_end, Opened, accept, Flowing);
    (Semantics.Open_end, Flowing, re_describe, Flowing);
    (Semantics.Open_end, Closing, [], Closing);
    (Semantics.Close_end, Closed, [], Closed);
    (Semantics.Close_end, Opening, [ "close" ], Closing);
    (Semantics.Close_end, Opened, [ "close" ], Closing);
    (Semantics.Close_end, Flowing, [ "close" ], Closing);
    (Semantics.Close_end, Closing, [], Closing);
    (Semantics.Hold_end, Closed, [], Closed);
    (Semantics.Hold_end, Opening, [], Opening);
    (Semantics.Hold_end, Opened, accept, Flowing);
    (Semantics.Hold_end, Flowing, re_describe, Flowing);
    (Semantics.Hold_end, Closing, [], Closing);
  ]

let test_engage_every_state () =
  List.iter
    (fun (kind, before, names, after) ->
      let case =
        Format.asprintf "%a in %s" Semantics.pp_end_kind kind (Slot_state.to_string before)
      in
      let o = ok_goal (End_goal.engage kind local_b Medium.Audio (slot_in before)) in
      check (Alcotest.list Alcotest.string) (case ^ ": emits") names (signal_names o.End_goal.out);
      check Alcotest.string (case ^ ": ends") (Slot_state.to_string after)
        (Slot_state.to_string o.End_goal.slot.Slot.state))
    engage_table

(* --- flowLink -------------------------------------------------------- *)

let flowing_slot label role peer_desc local =
  (* A slot driven to flowing as the opener, with a selected codec. *)
  let slot = fresh ~role label in
  let slot, _ = ok_slot (Slot.send_open slot Medium.Audio (Local.descriptor local)) in
  let slot, _, _ = ok_slot (Slot.receive slot (Signal.Oack peer_desc)) in
  let sel = Local.selector_for local peer_desc in
  let slot, _ = ok_slot (Slot.send_select slot sel) in
  let slot, _, _ =
    ok_slot (Slot.receive slot (Signal.Select (Local.selector_for local peer_desc)))
  in
  slot

let test_flow_link_idle_on_closed_pair () =
  let o = ok_goal (Flow_link.start (fresh "l") (fresh ~role:Slot.Channel_acceptor "r")) in
  check tint "no emission" 0 (List.length o.Flow_link.out)

let test_flow_link_opens_dead_side () =
  (* Bias toward media flow: flowing left + closed right means the
     flowlink opens the right slot with the cached left descriptor
     (the Click-to-Dial busy-tone situation, paper section IV-B). *)
  let left = flowing_slot "l" Slot.Channel_acceptor desc_b local_a in
  let right = fresh "r" in
  let o = ok_goal (Flow_link.start left right) in
  (match o.Flow_link.out with
  | [ (Flow_link.Right, Signal.Open (m, d)) ] ->
    check tbool "audio" true (Medium.equal m Medium.Audio);
    check tbool "forwards cached descriptor" true (Descriptor.equal d desc_b)
  | _ -> Alcotest.fail "expected one open on the right");
  check tbool "right opening" true (Slot.is_opening o.Flow_link.right);
  check tbool "right utd" true (Flow_link.up_to_date o.Flow_link.goal Flow_link.Right)

let test_flow_link_matches_both_flowing () =
  (* Both slots flowing when the flowlink is instantiated (the PBX/PC
     relink of Figure 13): it re-describes each side with the other
     side's cached descriptor. *)
  let left = flowing_slot "l" Slot.Channel_acceptor desc_b local_a in
  let right = flowing_slot "r" Slot.Channel_initiator (Local.descriptor local_a) local_b in
  let o = ok_goal (Flow_link.start left right) in
  let names = List.map (fun (_, s) -> Signal.name s) o.Flow_link.out in
  check tbool "two describes" true (names = [ "describe"; "describe" ])

let test_flow_link_propagates_close () =
  let left = flowing_slot "l" Slot.Channel_acceptor desc_b local_a in
  let right = flowing_slot "r" Slot.Channel_initiator (Local.descriptor local_a) local_b in
  let o = ok_goal (Flow_link.start left right) in
  let o =
    ok_goal
      (Flow_link.on_signal o.Flow_link.goal ~left:o.Flow_link.left ~right:o.Flow_link.right
         Flow_link.Left Signal.Close)
  in
  let names = List.map (fun (side, s) -> (side, Signal.name s)) o.Flow_link.out in
  check tbool "closeack left, close right" true
    (names = [ (Flow_link.Left, "closeack"); (Flow_link.Right, "close") ]);
  check tbool "left closed" true (Slot.is_closed o.Flow_link.left);
  check tbool "right closing" true (Slot.is_closing o.Flow_link.right)

let test_flow_link_filters_stale_selector () =
  let left = flowing_slot "l" Slot.Channel_acceptor desc_b local_a in
  let right = flowing_slot "r" Slot.Channel_initiator (Local.descriptor local_a) local_b in
  let o = ok_goal (Flow_link.start left right) in
  (* A selector answering a descriptor that is not the one cached on
     the left side is obsolete and must be discarded, not forwarded. *)
  let stale_desc = Descriptor.make ~owner:"Z" ~version:9 addr_b [ Codec.G711 ] in
  let stale = Selector.answer stale_desc ~sender:addr_b ~willing:[ Codec.G711 ] ~mute_out:false in
  let o =
    ok_goal
      (Flow_link.on_signal o.Flow_link.goal ~left:o.Flow_link.left ~right:o.Flow_link.right
         Flow_link.Right (Signal.Select stale))
  in
  check tint "nothing forwarded" 0 (List.length o.Flow_link.out)

let test_flow_link_forwards_fresh_selector () =
  let left = flowing_slot "l" Slot.Channel_acceptor desc_b local_a in
  let right = flowing_slot "r" Slot.Channel_initiator (Local.descriptor local_a) local_b in
  let o = ok_goal (Flow_link.start left right) in
  (* After start, the left slot has been sent the descriptor cached on
     the right (desc of B's side).  A selector arriving on the right
     that answers the descriptor cached on the LEFT slot is fresh and
     goes out on the left. *)
  let left_cached =
    match o.Flow_link.left.Slot.remote_desc with
    | Some d -> d
    | None -> Alcotest.fail "left side should be described"
  in
  let fresh_sel =
    Selector.answer left_cached ~sender:addr_b ~willing:[ Codec.G711 ] ~mute_out:false
  in
  let o =
    ok_goal
      (Flow_link.on_signal o.Flow_link.goal ~left:o.Flow_link.left ~right:o.Flow_link.right
         Flow_link.Right (Signal.Select fresh_sel))
  in
  match o.Flow_link.out with
  | [ (Flow_link.Left, Signal.Select s) ] ->
    check tbool "same selector" true (Selector.equal s fresh_sel)
  | _ -> Alcotest.fail "expected the selector forwarded left"

let test_flow_link_unfiltered_forwards_stale () =
  (* The ablation knob: with selector filtering disabled, the obsolete
     selector of the previous test escapes to the other side — the
     behaviour the up-to-date/filtering design exists to prevent. *)
  let left = flowing_slot "l" Slot.Channel_acceptor desc_b local_a in
  let right = flowing_slot "r" Slot.Channel_initiator (Local.descriptor local_a) local_b in
  let o = ok_goal (Flow_link.start ~filter_selectors:false left right) in
  let stale_desc = Descriptor.make ~owner:"Z" ~version:9 addr_b [ Codec.G711 ] in
  let stale = Selector.answer stale_desc ~sender:addr_b ~willing:[ Codec.G711 ] ~mute_out:false in
  let o =
    ok_goal
      (Flow_link.on_signal o.Flow_link.goal ~left:o.Flow_link.left ~right:o.Flow_link.right
         Flow_link.Right (Signal.Select stale))
  in
  match o.Flow_link.out with
  | [ (Flow_link.Left, Signal.Select s) ] ->
    check tbool "stale selector escaped" true (Selector.equal s stale)
  | _ -> Alcotest.fail "expected the stale selector to be forwarded"

let test_flow_link_medium_mismatch_rejected () =
  let left = flowing_slot "l" Slot.Channel_acceptor desc_b local_a in
  let right = fresh "r" in
  let right, _ =
    ok_slot
      (Slot.send_open right Medium.Video
         (Descriptor.make ~owner:"V" ~version:0 addr_b [ Codec.H264 ]))
  in
  match Flow_link.start left right with
  | Error (Goal_error.Precondition _) -> ()
  | Error (Goal_error.Protocol _) -> Alcotest.fail "wrong error kind"
  | Ok _ -> Alcotest.fail "media mismatch must be rejected"

let () =
  Alcotest.run "goals"
    [
      ( "openSlot",
        [
          Alcotest.test_case "start" `Quick test_open_slot_start;
          Alcotest.test_case "precondition" `Quick test_open_slot_precondition;
          Alcotest.test_case "muted descriptor" `Quick test_open_slot_muted_descriptor;
          Alcotest.test_case "retries after reject" `Quick test_open_slot_retries_after_reject;
          Alcotest.test_case "answers oack" `Quick test_open_slot_answers_oack;
          Alcotest.test_case "accepts peer open on race" `Quick test_open_slot_accepts_peer_open;
          Alcotest.test_case "modify while flowing" `Quick test_open_slot_modify_while_flowing;
          Alcotest.test_case "modify while opening" `Quick test_open_slot_modify_while_opening;
        ] );
      ( "holdSlot",
        [
          Alcotest.test_case "waits" `Quick test_hold_slot_waits;
          Alcotest.test_case "accepts" `Quick test_hold_slot_accepts;
          Alcotest.test_case "accepts inherited opened" `Quick test_hold_slot_accepts_inherited_opened;
          Alcotest.test_case "stays closed after close" `Quick test_hold_slot_stays_closed_after_peer_close;
          Alcotest.test_case "answers describe" `Quick test_hold_slot_answers_describe;
          Alcotest.test_case "modify while flowing" `Quick test_hold_slot_modify_while_flowing;
        ] );
      ( "closeSlot",
        [
          Alcotest.test_case "closes flowing" `Quick test_close_slot_closes_flowing;
          Alcotest.test_case "idle when closed" `Quick test_close_slot_idle_when_closed;
          Alcotest.test_case "rejects opens" `Quick test_close_slot_rejects_opens;
        ] );
      ( "engage",
        [ Alcotest.test_case "every kind in every state" `Quick test_engage_every_state ] );
      ( "flowLink",
        [
          Alcotest.test_case "idle on closed pair" `Quick test_flow_link_idle_on_closed_pair;
          Alcotest.test_case "opens dead side" `Quick test_flow_link_opens_dead_side;
          Alcotest.test_case "matches both flowing" `Quick test_flow_link_matches_both_flowing;
          Alcotest.test_case "propagates close" `Quick test_flow_link_propagates_close;
          Alcotest.test_case "filters stale selector" `Quick test_flow_link_filters_stale_selector;
          Alcotest.test_case "unfiltered forwards stale (ablation)" `Quick
            test_flow_link_unfiltered_forwards_stale;
          Alcotest.test_case "forwards fresh selector" `Quick test_flow_link_forwards_fresh_selector;
          Alcotest.test_case "medium mismatch" `Quick test_flow_link_medium_mismatch_rejected;
        ] );
    ]
