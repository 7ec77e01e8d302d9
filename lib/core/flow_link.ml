open Mediactl_types
open Mediactl_protocol

type side = Left | Right

let other = function
  | Left -> Right
  | Right -> Left

let pp_side ppf = function
  | Left -> Format.pp_print_string ppf "left"
  | Right -> Format.pp_print_string ppf "right"

(* Per-side bookkeeping.  [v_utd]: this side has been sent the other
   side's current descriptor.  [v_close_pending]: a close received on
   the other side must be propagated to this side.  [v_pending_sel]: a
   fresh selector received on the other side, waiting until this side
   can carry it.  The goal object stores the record it exposes, so
   [view] and [of_views] copy nothing. *)
type side_view = { v_utd : bool; v_close_pending : bool; v_pending_sel : Selector.t option }

let initial_side = { v_utd = false; v_close_pending = false; v_pending_sel = None }

type t = { left_st : side_view; right_st : side_view; filter_selectors : bool }

type outcome = {
  goal : t;
  left : Slot.t;
  right : Slot.t;
  out : (side * Signal.t) list;
}

let ( let* ) = Result.bind
let slot_op r = Result.map_error Goal_error.of_slot r

let get t = function
  | Left -> t.left_st
  | Right -> t.right_st

let set t side st =
  match side with
  | Left -> { t with left_st = st }
  | Right -> { t with right_st = st }

let up_to_date t side = (get t side).v_utd
let view = get

let of_views ?(filter_selectors = true) ~left ~right () =
  { left_st = left; right_st = right; filter_selectors }

let filters_selectors t = t.filter_selectors

(* A working view: goal flags, both slots, and accumulated emissions. *)
type work_state = {
  goal : t;
  slots : Slot.t * Slot.t;  (* left, right *)
  emitted : (side * Signal.t) list;  (* reversed *)
}

let slot_of w = function
  | Left -> fst w.slots
  | Right -> snd w.slots

let with_slot w side slot =
  match side with
  | Left -> { w with slots = (slot, snd w.slots) }
  | Right -> { w with slots = (fst w.slots, slot) }

let emit w side signal = { w with emitted = (side, signal) :: w.emitted }

let medium_precondition left right =
  match left.Slot.medium, right.Slot.medium with
  | Some m1, Some m2 when not (Medium.equal m1 m2) ->
    Error
      (Goal_error.precondition
         (Format.asprintf "flowLink media differ: %a vs %a" Medium.pp m1 Medium.pp m2))
  | (Some _ | None), _ -> Ok ()

(* One state-matching step on side [s]; [Ok None] means nothing to do. *)
let step_side w s =
  let o = other s in
  let slot_s = slot_of w s in
  let slot_o = slot_of w o in
  let st_s = get w.goal s in
  let st_o = get w.goal o in
  if st_s.v_close_pending then
    if Slot.is_live slot_s then
      (* Propagate a close received on the other side. *)
      let* slot_s, signal = slot_op (Slot.send_close slot_s) in
      let w = with_slot w s slot_s in
      let w = { w with goal = set w.goal s { st_s with v_close_pending = false } } in
      Ok (Some (emit w s signal))
    else
      (* Already dead; the propagation is moot. *)
      Ok (Some { w with goal = set w.goal s { st_s with v_close_pending = false } })
  else
    match slot_o.Slot.remote_desc, Slot.described slot_o with
    | Some desc_o, true when Slot.is_closed slot_s && not st_o.v_close_pending -> (
      (* Bias toward media flow: open the dead slot with the descriptor
         cached on the live side. *)
      match slot_o.Slot.medium with
      | None -> Ok None  (* unreachable: a described slot has a medium *)
      | Some m ->
        let* slot_s, signal = slot_op (Slot.send_open slot_s m desc_o) in
        let w = with_slot w s slot_s in
        let w = { w with goal = set w.goal s { st_s with v_utd = true } } in
        Ok (Some (emit w s signal)))
    | Some desc_o, true when Slot.is_opened slot_s ->
      (* Accept the open on [s] with the other side's descriptor. *)
      let* slot_s, signal = slot_op (Slot.send_oack slot_s desc_o) in
      let w = with_slot w s slot_s in
      let w = { w with goal = set w.goal s { st_s with v_utd = true } } in
      Ok (Some (emit w s signal))
    | Some desc_o, true when Slot.is_flowing slot_s && not st_s.v_utd ->
      (* Refresh this side with the other side's current descriptor. *)
      let* slot_s, signal = slot_op (Slot.send_describe slot_s desc_o) in
      let w = with_slot w s slot_s in
      let w = { w with goal = set w.goal s { st_s with v_utd = true } } in
      Ok (Some (emit w s signal))
    | (Some _ | None), _ -> (
      (* Selector forwarding: a pending selector can go out on [s] once
         [s] is flowing, provided it still answers the descriptor cached
         on [s] (otherwise it is obsolete and discarded). *)
      match st_s.v_pending_sel with
      | Some sel when Slot.is_flowing slot_s -> (
        let clear = { st_s with v_pending_sel = None } in
        let fresh =
          match slot_s.Slot.remote_desc with
          | Some desc_s -> Selector.responds_to_descriptor sel desc_s
          | None -> false
        in
        if fresh || not w.goal.filter_selectors then
          let* slot_s, signal = slot_op (Slot.send_select slot_s sel) in
          let w = with_slot w s slot_s in
          let w = { w with goal = set w.goal s clear } in
          Ok (Some (emit w s signal))
        else
          (* Obsolete selector: discard without forwarding. *)
          Ok (Some { w with goal = set w.goal s clear }))
      | Some _ | None -> Ok None)

(* Run state matching to a fixpoint.  Each productive step either sends
   a signal that strictly advances a slot's protocol state or clears a
   flag, so the fixpoint terminates. *)
let rec work w =
  let* progress_left = step_side w Left in
  match progress_left with
  | Some w -> work w
  | None ->
    let* progress_right = step_side w Right in
    (match progress_right with
    | Some w -> work w
    | None -> Ok w)

let finish (w : work_state) =
  let left, right = w.slots in
  { goal = w.goal; left; right; out = List.rev w.emitted }

let start ?(filter_selectors = true) left right =
  let* () = medium_precondition left right in
  let w =
    {
      goal = { left_st = initial_side; right_st = initial_side; filter_selectors };
      slots = (left, right);
      emitted = [];
    }
  in
  let* w = work w in
  Ok (finish w)

(* Flag updates driven by one note on side [s]. *)
let apply_note w s note =
  let o = other s in
  match note with
  | Slot.Opened_by_peer | Slot.Accepted_by_peer | Slot.New_descriptor ->
    (* A new descriptor was cached on [s]: the other side is no longer
       up to date. *)
    let st_o = get w.goal o in
    let w = { w with goal = set w.goal o { st_o with v_utd = false } } in
    let* () = medium_precondition (fst w.slots) (snd w.slots) in
    Ok w
  | Slot.Race_lost ->
    (* Our own open on [s] was discarded by the peer; whatever we sent
       with it no longer counts. *)
    let st_s = get w.goal s in
    Ok { w with goal = set w.goal s { st_s with v_utd = false } }
  | Slot.New_selector -> (
    match (slot_of w s).Slot.recv_sel with
    | Some sel ->
      let st_o = get w.goal o in
      Ok { w with goal = set w.goal o { st_o with v_pending_sel = Some sel } }
    | None -> Ok w)
  | Slot.Closed_by_peer ->
    (* Propagate the close; everything cached about this side is void. *)
    let st_o = get w.goal o in
    let goal =
      set
        (set w.goal s initial_side)
        o
        { st_o with v_close_pending = true; v_pending_sel = None }
    in
    Ok { w with goal }
  | Slot.Close_confirmed ->
    let st_s = get w.goal s in
    Ok { w with goal = set w.goal s { st_s with v_utd = false } }
  | Slot.Race_won | Slot.Dropped _ -> Ok w

let on_signal t ~left ~right s signal =
  let slot_s = match s with Left -> left | Right -> right in
  let* slot_s, auto, notes = slot_op (Slot.receive slot_s signal) in
  let w =
    let slots = match s with Left -> (slot_s, right) | Right -> (left, slot_s) in
    { goal = t; slots; emitted = List.rev_map (fun sg -> (s, sg)) auto }
  in
  let* w =
    List.fold_left
      (fun acc note ->
        let* w = acc in
        apply_note w s note)
      (Ok w)
      notes
  in
  let* w = work w in
  Ok (finish w)

let traced ~left ~right r =
  Result.map
    (fun o ->
      {
        o with
        left = Goal_trace.observe ~goal:"flowLink" left o.left;
        right = Goal_trace.observe ~goal:"flowLink" right o.right;
      })
    r

let start ?filter_selectors left right =
  traced ~left ~right (start ?filter_selectors left right)

let on_signal t ~left ~right s signal = traced ~left ~right (on_signal t ~left ~right s signal)

let pp ppf t =
  let side ppf st =
    Format.fprintf ppf "utd=%b close=%b pending=%b" st.v_utd st.v_close_pending
      (st.v_pending_sel <> None)
  in
  Format.fprintf ppf "flowLink(left:{%a} right:{%a})" side t.left_st side t.right_st
