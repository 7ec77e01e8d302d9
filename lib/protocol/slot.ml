open Mediactl_types

type role = Channel_initiator | Channel_acceptor

type t = {
  label : string;
  role : role;
  state : Slot_state.t;
  medium : Medium.t option;
  remote_desc : Descriptor.t option;
  sent_desc : Descriptor.t option;
  recv_sel : Selector.t option;
  sent_sel : Selector.t option;
}

type note =
  | Opened_by_peer
  | Accepted_by_peer
  | Closed_by_peer
  | Close_confirmed
  | Race_won
  | Race_lost
  | New_descriptor
  | New_selector
  | Dropped of Signal.t

type error =
  | Unexpected_signal of { state : Slot_state.t; signal : Signal.t }
  | Illegal_send of { state : Slot_state.t; operation : string }

let pp_error ppf = function
  | Unexpected_signal { state; signal } ->
    Format.fprintf ppf "unexpected %s in state %a" (Signal.name signal) Slot_state.pp state
  | Illegal_send { state; operation } ->
    Format.fprintf ppf "illegal %s in state %a" operation Slot_state.pp state

let error_to_string e = Format.asprintf "%a" pp_error e

let create ~label role =
  {
    label;
    role;
    state = Slot_state.Closed;
    medium = None;
    remote_desc = None;
    sent_desc = None;
    recv_sel = None;
    sent_sel = None;
  }

(* Entering Closed wipes every dynamic attribute: the paper defines the
   medium (and by extension the caches) only while the slot is not
   closed. *)
let to_closed t =
  {
    t with
    state = Slot_state.Closed;
    medium = None;
    remote_desc = None;
    sent_desc = None;
    recv_sel = None;
    sent_sel = None;
  }

let unexpected t signal = Error (Unexpected_signal { state = t.state; signal })

let receive t signal =
  match signal, t.state with
  (* --- open ------------------------------------------------------- *)
  | Signal.Open (m, d), Slot_state.Closed ->
    let t = { t with state = Slot_state.Opened; medium = Some m; remote_desc = Some d } in
    Ok (t, [], [ Opened_by_peer ])
  | Signal.Open (m, d), Slot_state.Opening -> (
    (* Two opens crossed in the tunnel.  The channel initiator wins. *)
    match t.role with
    | Channel_initiator -> Ok (t, [], [ Race_won ])
    | Channel_acceptor ->
      (* Back off: forget our own open and act as acceptor of theirs. *)
      let t =
        {
          t with
          state = Slot_state.Opened;
          medium = Some m;
          remote_desc = Some d;
          sent_desc = None;
        }
      in
      Ok (t, [], [ Race_lost; Opened_by_peer ]))
  | Signal.Open _, Slot_state.Closing ->
    (* Our close is chasing our own open after a race: the crossing open
       from the peer is stale — the peer has backed off (or will close)
       once it sees our close. *)
    Ok (t, [], [ Dropped signal ])
  | Signal.Open _, (Slot_state.Opened | Slot_state.Flowing) -> unexpected t signal
  (* --- oack ------------------------------------------------------- *)
  | Signal.Oack d, Slot_state.Opening ->
    let t = { t with state = Slot_state.Flowing; remote_desc = Some d } in
    Ok (t, [], [ Accepted_by_peer ])
  | Signal.Oack _, Slot_state.Closing ->
    (* Their acceptance crossed our close; they will answer the close. *)
    Ok (t, [], [ Dropped signal ])
  | Signal.Oack _, (Slot_state.Closed | Slot_state.Opened | Slot_state.Flowing) ->
    unexpected t signal
  (* --- close ------------------------------------------------------ *)
  | Signal.Close, (Slot_state.Opening | Slot_state.Opened | Slot_state.Flowing) ->
    Ok (to_closed t, [ Signal.Closeack ], [ Closed_by_peer ])
  | Signal.Close, Slot_state.Closing ->
    (* Two closes crossed: acknowledge theirs, keep waiting for ours to
       be acknowledged. *)
    Ok (t, [ Signal.Closeack ], [ Closed_by_peer ])
  | Signal.Close, Slot_state.Closed -> unexpected t signal
  (* --- closeack --------------------------------------------------- *)
  | Signal.Closeack, Slot_state.Closing -> Ok (to_closed t, [], [ Close_confirmed ])
  | Signal.Closeack, (Slot_state.Closed | Slot_state.Opening | Slot_state.Opened | Slot_state.Flowing)
    ->
    unexpected t signal
  (* --- describe --------------------------------------------------- *)
  | Signal.Describe d, Slot_state.Flowing ->
    Ok ({ t with remote_desc = Some d }, [], [ New_descriptor ])
  | Signal.Describe _, Slot_state.Closing -> Ok (t, [], [ Dropped signal ])
  | Signal.Describe _, (Slot_state.Closed | Slot_state.Opening | Slot_state.Opened) ->
    unexpected t signal
  (* --- select ----------------------------------------------------- *)
  | Signal.Select s, Slot_state.Flowing ->
    Ok ({ t with recv_sel = Some s }, [], [ New_selector ])
  | Signal.Select _, Slot_state.Closing -> Ok (t, [], [ Dropped signal ])
  | Signal.Select _, (Slot_state.Closed | Slot_state.Opening | Slot_state.Opened) ->
    unexpected t signal

(* Trace instrumentation: a no-op load-and-branch unless a sink is
   installed — [receive] sits in the model checker's innermost loop. *)
let observe ~cause before after =
  if
    Mediactl_obs.Trace.enabled () && not (Slot_state.equal after.state before.state)
  then
    Mediactl_obs.Trace.slot_transition ~slot:before.label
      ~from_:(Slot_state.to_string before.state) ~to_:(Slot_state.to_string after.state) ~cause;
  after

let receive t signal =
  match receive t signal with
  | Ok (t', outs, notes) -> Ok (observe ~cause:(Signal.name signal) t t', outs, notes)
  | Error _ as e -> e

let illegal t operation = Error (Illegal_send { state = t.state; operation })

let send_open t m d =
  match t.state with
  | Slot_state.Closed ->
    let t =
      { t with state = Slot_state.Opening; medium = Some m; sent_desc = Some d }
    in
    Ok (t, Signal.Open (m, d))
  | Slot_state.Opening | Slot_state.Opened | Slot_state.Flowing | Slot_state.Closing ->
    illegal t "send_open"

let send_oack t d =
  match t.state with
  | Slot_state.Opened ->
    let t = { t with state = Slot_state.Flowing; sent_desc = Some d } in
    Ok (t, Signal.Oack d)
  | Slot_state.Closed | Slot_state.Opening | Slot_state.Flowing | Slot_state.Closing ->
    illegal t "send_oack"

let send_close t =
  match t.state with
  | Slot_state.Opening | Slot_state.Opened | Slot_state.Flowing ->
    Ok ({ t with state = Slot_state.Closing }, Signal.Close)
  | Slot_state.Closed | Slot_state.Closing -> illegal t "send_close"

let send_describe t d =
  match t.state with
  | Slot_state.Flowing -> Ok ({ t with sent_desc = Some d }, Signal.Describe d)
  | Slot_state.Closed | Slot_state.Opening | Slot_state.Opened | Slot_state.Closing ->
    illegal t "send_describe"

let send_select t s =
  match t.state with
  | Slot_state.Flowing -> Ok ({ t with sent_sel = Some s }, Signal.Select s)
  | Slot_state.Closed | Slot_state.Opening | Slot_state.Opened | Slot_state.Closing ->
    illegal t "send_select"

let wrap_send ~operation inner t =
  match inner with
  | Ok (t', signal) -> Ok (observe ~cause:operation t t', signal)
  | Error _ as e -> e

let send_open t m d = wrap_send ~operation:"send_open" (send_open t m d) t
let send_oack t d = wrap_send ~operation:"send_oack" (send_oack t d) t
let send_close t = wrap_send ~operation:"send_close" (send_close t) t
let send_describe t d = wrap_send ~operation:"send_describe" (send_describe t d) t
let send_select t s = wrap_send ~operation:"send_select" (send_select t s) t

let is_closed t = t.state = Slot_state.Closed
let is_opening t = t.state = Slot_state.Opening
let is_opened t = t.state = Slot_state.Opened
let is_flowing t = t.state = Slot_state.Flowing
let is_closing t = t.state = Slot_state.Closing
let is_live t = Slot_state.is_live t.state

let described t =
  match t.state with
  | Slot_state.Opened | Slot_state.Flowing -> t.remote_desc <> None
  | Slot_state.Closed | Slot_state.Opening | Slot_state.Closing -> false

let tx_enabled t =
  is_flowing t
  &&
  match t.sent_sel, t.remote_desc with
  | Some sel, Some desc -> Selector.responds_to_descriptor sel desc && Selector.transmits sel
  | (Some _ | None), _ -> false

let rx_enabled t =
  is_flowing t
  &&
  match t.recv_sel, t.sent_desc with
  | Some sel, Some desc -> Selector.responds_to_descriptor sel desc && Selector.transmits sel
  | (Some _ | None), _ -> false

let tx_codec t = if tx_enabled t then Option.bind t.sent_sel Selector.codec else None
let rx_codec t = if rx_enabled t then Option.bind t.recv_sel Selector.codec else None

let opt_equal eq a b =
  match a, b with
  | None, None -> true
  | Some x, Some y -> eq x y
  | (Some _ | None), _ -> false

let equal a b =
  a.role = b.role
  && Slot_state.equal a.state b.state
  && opt_equal Medium.equal a.medium b.medium
  && opt_equal Descriptor.equal a.remote_desc b.remote_desc
  && opt_equal Descriptor.equal a.sent_desc b.sent_desc
  && opt_equal Selector.equal a.recv_sel b.recv_sel
  && opt_equal Selector.equal a.sent_sel b.sent_sel

let pp ppf t =
  Format.fprintf ppf "%s[%a%s%s]" t.label Slot_state.pp t.state
    (if tx_enabled t then " tx" else "")
    (if rx_enabled t then " rx" else "")
