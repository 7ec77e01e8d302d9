open Mediactl_types
open Mediactl_core
open Mediactl_protocol
open Mediactl_runtime
open Mediactl_obs

(* One call inside a daemon: a two-box, one-channel path in the
   daemon's shared network, with a goal object engaged at each end.

   A {e local} call owns both real ends.  A {e bridged} call owns one
   real end and a {e proxy} box standing in for the end that lives in
   the peer daemon: the proxy's slot is never bound, because no goal
   runs here for it — instead the daemon's impairment hook intercepts
   every frame addressed to the proxy and ships it over the wire, and
   frames arriving from the wire are injected at the real end as if
   the proxy had sent them.  Around each crossing the daemon emits a
   synthetic trace event {e at the proxy} (a receive when shipping
   out, a send when injecting in), so the local trace contains a
   complete two-sided tunnel history and the Fig. 5 monitor can judge
   the call from one daemon's recording alone.  Each call keeps its
   own monitor, which the daemon steps with every drained entry that
   names the call's channel.

   Box names are derived from the call id identically in both daemons
   ([L:<id>] initiates, [R:<id>] accepts), so the two recordings name
   the same boxes and either side's verdict speaks about the same
   path. *)

type role = Local_call | Origin | Acceptor

(* The proxy's Figure-5 state, tracked locally so the synthetic events
   around each wire crossing can be put in an order the remote end
   could actually have executed (see [receive]). *)
type proxy_state = P_closed | P_opening | P_opened | P_flowing | P_closing

type t = {
  c_id : string;
  c_chan : string;
  c_left_box : string;  (* channel initiator *)
  c_right_box : string;
  c_role : role;
  mutable c_left_kind : Semantics.end_kind;
  mutable c_right_kind : Semantics.end_kind;
  mutable c_torn : bool;  (* teardown driven (or Bye seen) *)
  mutable c_proxy_st : proxy_state;
  mutable c_pending : (int * Signal.t) list;
      (* shipped signals (tunnel, signal) whose receive at the proxy has
         not been recorded yet, oldest first *)
  c_monitor : Monitor.t;  (* stepped by every drained entry on [c_chan] *)
  mutable c_last_seq : int;  (* sequence number of the last such entry, -1 before any *)
  mutable c_last_at : float;  (* and its timestamp *)
}

let id t = t.c_id
let chan t = t.c_chan
let role t = t.c_role
let torn t = t.c_torn

let left_box_of id = "L:" ^ id
let right_box_of id = "R:" ^ id

let local_box t =
  match t.c_role with Local_call | Origin -> t.c_left_box | Acceptor -> t.c_right_box

let proxy_box t =
  match t.c_role with
  | Local_call -> None
  | Origin -> Some t.c_right_box
  | Acceptor -> Some t.c_left_box

let local_kind t =
  match t.c_role with Local_call | Origin -> t.c_left_kind | Acceptor -> t.c_right_kind

(* Per-box media endpoints: symbolic addresses in the daemon's own
   net, the port derived (stably) from the box name so concurrent
   calls do not collide. *)
let endpoint_of box ~host =
  let port = 1024 + (Hashtbl.hash box mod 60000) in
  Local.endpoint ~owner:box (Address.v host port) [ Codec.G711; Codec.G726 ]

let local_of t box =
  endpoint_of box ~host:(if String.equal box t.c_left_box then "10.9.0.1" else "10.9.0.2")

let slot_of t box = Netsys.slot_ref ~box ~chan:t.c_chan ()

(* the any-state start of every kind, so RESUME can re-open from Held *)
let engage t net box kind = Netsys.bind_end net (slot_of t box) kind (local_of t box) Medium.Audio

let make ~id ~role ~left ~right =
  {
    c_id = id;
    c_chan = id;
    c_left_box = left_box_of id;
    c_right_box = right_box_of id;
    c_role = role;
    c_left_kind = left;
    c_right_kind = right;
    c_torn = false;
    c_proxy_st = P_closed;
    c_pending = [];
    c_monitor = Monitor.create ();
    c_last_seq = -1;
    c_last_at = 0.0;
  }

(* Build the call's boxes and channel in the shared network and engage
   the locally owned end(s).  The topology change emits nothing; each
   engagement's signals are scheduled by the driver as usual. *)
let install driver t =
  Timed.apply_quiet driver (fun net ->
    let net = Netsys.add_box (Netsys.add_box net t.c_left_box) t.c_right_box in
    Netsys.connect net ~chan:t.c_chan ~initiator:t.c_left_box ~acceptor:t.c_right_box ());
  (match t.c_role with
  | Local_call ->
    Timed.apply driver (fun net -> engage t net t.c_left_box t.c_left_kind);
    Timed.apply driver (fun net -> engage t net t.c_right_box t.c_right_kind)
  | Origin -> Timed.apply driver (fun net -> engage t net t.c_left_box t.c_left_kind)
  | Acceptor -> Timed.apply driver (fun net -> engage t net t.c_right_box t.c_right_kind));
  t

(* ------------------------------------------------------------------ *)
(* The bridge crossings                                                *)

let proxy_is_initiator t =
  match proxy_box t with
  | Some box -> String.equal box t.c_left_box
  | None -> false

(* The local trace can only be two-sided if the daemon records events
   {e at the proxy} for each crossing, but it learns about the remote
   end's actions with a skew: a signal we ship is received over there
   at some unknown later moment, possibly {e after} the remote sent
   signals that are still in flight toward us.  Emitting "proxy
   received X" at ship time therefore mis-orders engage collisions
   (open/open, close/close) and makes the Fig. 5 replay reject a run
   the remote actually executed legally.

   Instead, shipped signals wait in [c_pending] and their proxy-side
   receive is recorded lazily, ordered by a local replica of the
   proxy's Figure-5 state: an inbound signal that would be an illegal
   send in the replica's current state must — because the remote only
   performs legal sends — have been preceded by the receive of enough
   of our pending signals to make it legal, so exactly those are
   flushed first.  Whatever is still pending when a verdict is asked
   for is stepped onto a copy of the call's monitor ([verdict]): the
   wire is reliable, so a pending receive is "in flight", exactly like
   a queued signal at a simulation cutoff. *)

let send_legal st (signal : Signal.t) =
  match (signal, st) with
  | Signal.Open _, P_closed -> true
  | Signal.Oack _, P_opened -> true
  | Signal.Close, (P_opening | P_opened | P_flowing) -> true
  | Signal.Closeack, (P_closed | P_closing) -> true
  | (Signal.Describe _ | Signal.Select _), P_flowing -> true
  | (Signal.Open _ | Signal.Oack _ | Signal.Close | Signal.Closeack | Signal.Describe _
    | Signal.Select _), _ ->
    false

let after_send st (signal : Signal.t) =
  match (signal, st) with
  | Signal.Open _, P_closed -> P_opening
  | Signal.Oack _, P_opened -> P_flowing
  | Signal.Close, (P_opening | P_opened | P_flowing) -> P_closing
  | ( (Signal.Open _ | Signal.Oack _ | Signal.Close | Signal.Closeack | Signal.Describe _
      | Signal.Select _), _ ) ->
    st

let after_recv st (signal : Signal.t) ~initiator =
  match (signal, st) with
  | Signal.Open _, P_closed -> P_opened
  (* crossed opens: the initiator holds its ground, the acceptor backs
     off and answers the initiator's open *)
  | Signal.Open _, P_opening -> if initiator then st else P_opened
  | Signal.Oack _, P_opening -> P_flowing
  | Signal.Close, (P_opening | P_opened | P_flowing) -> P_closed
  | Signal.Closeack, P_closing -> P_closed
  | ( (Signal.Open _ | Signal.Oack _ | Signal.Close | Signal.Closeack | Signal.Describe _
      | Signal.Select _), _ ) ->
    st

let proxy_sig t ~tun ~proxy signal =
  {
    Trace.chan = t.c_chan;
    tun;
    box = proxy;
    peer = local_box t;
    initiator = proxy_is_initiator t;
    signal;
  }

(* Record the proxy receiving its oldest pending signals, one at a
   time, until sending [until_legal_for] becomes legal (or nothing is
   pending). *)
let flush_pending t ~proxy ~until_legal_for =
  let rec go () =
    match t.c_pending with
    | (tun, pending) :: rest when not (send_legal t.c_proxy_st until_legal_for) ->
      t.c_pending <- rest;
      if Trace.enabled () then Trace.emit (Trace.Sig_recv (proxy_sig t ~tun ~proxy pending));
      t.c_proxy_st <- after_recv t.c_proxy_st pending ~initiator:(proxy_is_initiator t);
      go ()
    | _ -> ()
  in
  go ()

(* Outbound: the impairment hook popped a frame addressed to the
   proxy.  Queue its proxy-side receive and hand the wire frame to
   [send]; the caller delivers no local copy. *)
let ship t ~send (frame : Timed.frame) =
  let tun = frame.Timed.f_send.Netsys.s_tun in
  if Option.is_some (proxy_box t) then t.c_pending <- t.c_pending @ [ (tun, frame.Timed.f_signal) ];
  send (Wire.Signal_f { chan = t.c_chan; tun; signal = frame.Timed.f_signal })

(* Inbound: a wire signal from the peer daemon.  Linearize: flush
   pending proxy receives until this send is legal, record the proxy's
   send, then inject the signal at the real end; the [n] transit
   already happened on the real network, so the only further delay is
   the receiver's compute time, which [inject_frame] adds. *)
let receive driver t ~tun ~frame_id signal =
  (match proxy_box t with
  | Some proxy ->
    flush_pending t ~proxy ~until_legal_for:signal;
    if Trace.enabled () then Trace.emit (Trace.Sig_send (proxy_sig t ~tun ~proxy signal));
    t.c_proxy_st <- after_send t.c_proxy_st signal
  | None -> ());
  Timed.inject_frame driver ~delay:0.0
    {
      Timed.f_id = frame_id;
      f_send = { Netsys.s_chan = t.c_chan; s_tun = tun; to_ = local_box t };
      f_signal = signal;
    }

(* ------------------------------------------------------------------ *)
(* Control operations                                                  *)

let set_local_kind t kind =
  match t.c_role with
  | Local_call | Origin -> t.c_left_kind <- kind
  | Acceptor -> t.c_right_kind <- kind

let rebind_local driver t kind =
  set_local_kind t kind;
  Timed.apply driver (fun net -> engage t net (local_box t) kind)

let hold driver t = rebind_local driver t Semantics.Hold_end
let resume driver t = rebind_local driver t Semantics.Open_end

(* Teardown closes every end this daemon owns; for a bridged call the
   peer end's kind is recorded as closing too — the Bye the daemon
   sends makes the peer do the same — so both daemons converge on the
   close/close obligation. *)
let teardown driver t =
  t.c_torn <- true;
  (match t.c_role with
  | Local_call ->
    t.c_left_kind <- Semantics.Close_end;
    t.c_right_kind <- Semantics.Close_end;
    Timed.apply driver (fun net -> engage t net t.c_left_box Semantics.Close_end);
    Timed.apply driver (fun net -> engage t net t.c_right_box Semantics.Close_end)
  | Origin | Acceptor ->
    t.c_left_kind <- Semantics.Close_end;
    t.c_right_kind <- Semantics.Close_end;
    rebind_local driver t Semantics.Close_end)

let on_bye driver t =
  t.c_torn <- true;
  t.c_left_kind <- Semantics.Close_end;
  t.c_right_kind <- Semantics.Close_end;
  rebind_local driver t Semantics.Close_end

(* ------------------------------------------------------------------ *)
(* Observation                                                         *)

let slot_state s =
  if Slot.is_flowing s then "flowing"
  else if Slot.is_closing s then "closing"
  else if Slot.is_opening s then "opening"
  else if Slot.is_opened s then "opened"
  else if Slot.is_closed s then "closed"
  else "unknown"

let end_state net t box =
  match Netsys.slot net (slot_of t box) with
  | Some s -> slot_state s
  | None -> "-"

(* WAIT predicates over the shared network.  For a bridged call only
   the local end is materialised, so the condition reads that end; for
   a local call it reads the paper's path predicates over both. *)
let flowing t net =
  match t.c_role with
  | Local_call -> (
    match
      (Netsys.slot net (slot_of t t.c_left_box), Netsys.slot net (slot_of t t.c_right_box))
    with
    | Some l, Some r -> Semantics.both_flowing ~left:l ~right:r
    | (Some _ | None), _ -> false)
  | Origin | Acceptor -> (
    match Netsys.slot net (slot_of t (local_box t)) with
    | Some s -> Slot.is_flowing s
    | None -> false)

let closed t net =
  match t.c_role with
  | Local_call -> (
    match
      (Netsys.slot net (slot_of t t.c_left_box), Netsys.slot net (slot_of t t.c_right_box))
    with
    | Some l, Some r -> Semantics.both_closed ~left:l ~right:r
    | (Some _ | None), _ -> false)
  | Origin | Acceptor -> (
    match Netsys.slot net (slot_of t (local_box t)) with
    | Some s -> Slot.is_closed s
    | None -> false)

let obligation t =
  match Semantics.spec_of t.c_left_kind t.c_right_kind with
  | Semantics.Eventually_always_closed -> Monitor.Eventually_always_closed
  | Semantics.Eventually_always_not_flowing -> Monitor.Eventually_always_not_flowing
  | Semantics.Always_eventually_flowing -> Monitor.Always_eventually_flowing
  | Semantics.Closed_or_flowing -> Monitor.Closed_or_flowing

let ends t =
  { Monitor.left = (t.c_left_box, t.c_chan, 0); right = (t.c_right_box, t.c_chan, 0) }

let step t p i =
  Monitor.step t.c_monitor p i;
  t.c_last_seq <- Trace.Packed.seq p i;
  t.c_last_at <- Trace.Packed.at p i

(* Shipped signals whose proxy-side receive is still pending are "in
   flight" over the (reliable) wire: at a verdict cutoff they are
   stepped as received, right after the call's last entry, the
   analogue of a simulation cutoff draining its queues.  They go onto
   a copy of the monitor and are not committed — a later inbound
   signal may still order ahead of them. *)
let verdict t =
  let m =
    match (proxy_box t, t.c_pending) with
    | Some proxy, (_ :: _ as pending) ->
      let m = Monitor.copy t.c_monitor in
      List.iteri
        (fun i (tun, signal) ->
          Monitor.observe m
            {
              Trace.seq = t.c_last_seq + 1 + i;
              at = t.c_last_at;
              kind = Trace.Sig_recv (proxy_sig t ~tun ~proxy signal);
            })
        pending;
      m
    | (Some _ | None), _ -> t.c_monitor
  in
  Monitor.judge { Monitor.structural = false; obligation = obligation t; legs = [ ends t ] } m

let status_line net t =
  Printf.sprintf "CALL %s %s %s/%s %s/%s %s" t.c_id
    (match t.c_role with Local_call -> "local" | Origin -> "origin" | Acceptor -> "acceptor")
    (Control.kind_to_string t.c_left_kind)
    (Control.kind_to_string t.c_right_kind)
    (end_state net t t.c_left_box)
    (end_state net t t.c_right_box)
    (Format.asprintf "%a" Monitor.pp_verdict (verdict t))
