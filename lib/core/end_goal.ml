open Mediactl_types
open Mediactl_protocol

type t = Open of { local : Local.t; want : Medium.t } | Close | Hold of { local : Local.t }

type outcome = { goal : t; slot : Slot.t; out : Signal.t list }

let ( let* ) = Result.bind
let slot_op r = Result.map_error Goal_error.of_slot r

let kind = function
  | Open _ -> Semantics.Open_end
  | Close -> Semantics.Close_end
  | Hold _ -> Semantics.Hold_end

let send_open local want slot = slot_op (Slot.send_open slot want (Local.descriptor local))

let remote_desc slot =
  match slot.Slot.remote_desc with
  | Some d -> Ok d
  | None -> Error (Goal_error.precondition "no remote descriptor cached")

(* The standard reactions of a media endpoint, parameterized by its
   local media face.  Each puts its signals after [out], those already
   collected for the same received signal. *)

(* Answer the peer's current descriptor with a selector. *)
let answer local (slot, out) =
  let* desc = remote_desc slot in
  let* slot, select = slot_op (Slot.send_select slot (Local.selector_for local desc)) in
  Ok (slot, out @ [ select ])

(* Accept a received open: oack with our descriptor, then select
   answering the opener's descriptor (paper Figure 9: !oack / !select). *)
let accept local (slot, out) =
  let* desc = remote_desc slot in
  let* slot, oack = slot_op (Slot.send_oack slot (Local.descriptor local)) in
  let* slot, select = slot_op (Slot.send_select slot (Local.selector_for local desc)) in
  Ok (slot, out @ [ oack; select ])

let reopen local want (slot, out) =
  let* slot, signal = send_open local want slot in
  Ok (slot, out @ [ signal ])

let reject (slot, out) =
  let* slot, signal = slot_op (Slot.send_close slot) in
  Ok (slot, out @ [ signal ])

let open_now goal local want slot =
  let* slot, signal = send_open local want slot in
  Ok { goal; slot; out = [ signal ] }

(* Put this goal's own media face on a flowing channel, so the channel
   reflects it rather than whatever the previous goal advertised:
   describe the face, then re-select against the peer's current
   descriptor.  Any other state learns the face at its next open or
   accept. *)
let reface goal local slot =
  if Slot.is_flowing slot then
    let* slot, describe = slot_op (Slot.send_describe slot (Local.descriptor local)) in
    let* slot, out = answer local (slot, [ describe ]) in
    Ok { goal; slot; out }
  else Ok { goal; slot; out = [] }

(* An openslot or holdslot gaining control of a slot in any state the
   openslot does not open itself.  An opened slot's channel was already
   requested: accept it right away.  A flowing one gets this goal's
   face; in an application server the face is noMedia in both
   directions, which is how a holdslot taking over from a flowlink
   silences the far endpoint (putting it "on hold").  Otherwise wait:
   closed, for the other end to ask; opening, for the oack or reject on
   its way; closing, for the closeack. *)
let take_over goal local slot =
  if Slot.is_opened slot then
    let* slot, out = accept local (slot, []) in
    Ok { goal; slot; out }
  else reface goal local slot

let open_slot local want slot =
  if not (Slot.is_closed slot) then
    Error (Goal_error.precondition "openSlot requires a closed slot")
  else open_now (Open { local; want }) local want slot

let assume_open local want slot =
  let goal = Open { local; want } in
  if Slot.is_closed slot then open_now goal local want slot else take_over goal local slot

let close_slot slot =
  if Slot.is_live slot then
    let* slot, signal = slot_op (Slot.send_close slot) in
    Ok { goal = Close; slot; out = [ signal ] }
  else Ok { goal = Close; slot; out = [] }

let hold_slot local slot = take_over (Hold { local }) local slot

(* One received signal can produce several notes (a lost race is both
   [Race_lost] and [Opened_by_peer]); [on_signal] folds [react] over
   them.  Each goal has its own table. *)
let react goal acc note =
  match goal with
  | Open { local; want } -> (
    match note with
    | Slot.Opened_by_peer ->
      (* Accepting the peer's open is the fastest road to flowing. *)
      accept local acc
    | Slot.Accepted_by_peer | Slot.New_descriptor ->
      (* Our open was oacked, or the peer re-described: the receiver of
         a descriptor must respond with a selector. *)
      answer local acc
    | Slot.Closed_by_peer ->
      (* A reject (or a close of a flowing channel): open again.  The
         openslot takes every opportunity to push toward flowing.  When
         the peer's close crossed a close inherited from a previous
         goal, the slot is still closing; the reopen then waits for the
         closeack (handled at [Close_confirmed]). *)
      if Slot.is_closed (fst acc) then reopen local want acc else Ok acc
    | Slot.Close_confirmed ->
      (* Only reachable when the slot was inherited in the closing
         state: once the close completes, push toward flowing again. *)
      reopen local want acc
    | Slot.Race_won | Slot.Race_lost | Slot.New_selector | Slot.Dropped _ -> Ok acc)
  | Close -> (
    match note with
    | Slot.Opened_by_peer | Slot.Accepted_by_peer ->
      (* Reject an open immediately.  An oack answering an open
         inherited from a previous goal arrived before our close was
         sent: close the now-flowing channel. *)
      reject acc
    | Slot.New_descriptor | Slot.New_selector | Slot.Closed_by_peer | Slot.Close_confirmed
    | Slot.Race_won | Slot.Race_lost | Slot.Dropped _ ->
      (* Nothing to answer.  A descriptor or selector arrives only when
         the slot was inherited flowing and our close is about to be
         sent or crossed it. *)
      Ok acc)
  | Hold { local } -> (
    match note with
    | Slot.Opened_by_peer -> accept local acc
    | Slot.Accepted_by_peer | Slot.New_descriptor ->
      (* An open inherited from a previous openslot was accepted, or
         the peer re-described: answer its descriptor. *)
      answer local acc
    | Slot.Closed_by_peer | Slot.Race_won | Slot.Race_lost | Slot.New_selector
    | Slot.Close_confirmed | Slot.Dropped _ ->
      (* A closed channel stays closed until the other end asks to open
         it again. *)
      Ok acc)

let on_signal goal slot signal =
  let* slot, auto, notes = slot_op (Slot.receive slot signal) in
  let* slot, out =
    List.fold_left
      (fun acc note ->
        let* acc = acc in
        react goal acc note)
      (Ok (slot, auto))
      notes
  in
  Ok { goal; slot; out }

let modify goal slot mute =
  match goal with
  | Open { local; want } ->
    let local = Local.modify local mute in
    reface (Open { local; want }) local slot
  | Hold { local } ->
    let local = Local.modify local mute in
    reface (Hold { local }) local slot
  | Close -> Error (Goal_error.precondition "closeSlot has no media face to modify")

let name = function Open _ -> "openSlot" | Close -> "closeSlot" | Hold _ -> "holdSlot"

(* [Goal_trace.observe] hands back the slot it is given, so the outcome
   goes out as it came in. *)
let traced before r =
  (match r with
  | Ok o -> ignore (Goal_trace.observe ~goal:(name o.goal) before o.slot : Slot.t)
  | Error _ -> ());
  r

let open_slot local want slot = traced slot (open_slot local want slot)
let assume_open local want slot = traced slot (assume_open local want slot)
let close_slot slot = traced slot (close_slot slot)
let hold_slot local slot = traced slot (hold_slot local slot)
let on_signal goal slot signal = traced slot (on_signal goal slot signal)
let modify goal slot mute = traced slot (modify goal slot mute)

let engage kind local want slot =
  match kind with
  | Semantics.Open_end -> assume_open local want slot
  | Semantics.Close_end -> close_slot slot
  | Semantics.Hold_end -> hold_slot local slot
