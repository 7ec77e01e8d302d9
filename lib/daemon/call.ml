open Mediactl_types
open Mediactl_core
open Mediactl_protocol
open Mediactl_runtime
open Mediactl_obs

(* One call inside a daemon: a two-box, one-channel path in a network
   of its own, run by its own driver on the daemon's wall clock, with a
   goal object engaged at each end the daemon owns.

   A {e local} call owns both real ends; its signals ride the reliable
   FIFO tunnels, as a simulated session's do.  A {e bridged} call owns
   one real end and a {e proxy} box standing in for the end that lives
   in the peer daemon: the proxy's slot is never bound, because no goal
   runs here for it, so it never emits.  The call's driver carries an
   impairment hook that ships every frame the real end emits — each is
   addressed to the proxy — over the wire, and frames arriving from the
   wire are injected at the real end as if the proxy had sent them.
   Around each crossing the call emits a synthetic trace event {e at
   the proxy} (a receive when shipping out, a send when injecting in),
   so the local trace contains a complete two-sided tunnel history and
   the Fig. 5 monitor can judge the call from one daemon's recording
   alone.  Each call keeps its own monitor, which the daemon steps with
   every drained entry that names the call's channel.

   Box names are derived from the call id identically in both daemons
   ([L:<id>] initiates, [R:<id>] accepts), so the two recordings name
   the same boxes and either side's verdict speaks about the same
   path. *)

type role = Local_call | Origin of (Wire.frame -> bool) | Acceptor of (Wire.frame -> bool)

(* The proxy's Figure-5 state, tracked locally so the synthetic events
   around each wire crossing can be put in an order the remote end
   could actually have executed (see [receive]). *)
type proxy_state = P_closed | P_opening | P_opened | P_flowing | P_closing

type t = {
  c_id : string;  (* also the channel's name *)
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
  c_monitor : Monitor.t;  (* stepped by every drained entry on the channel *)
  mutable c_last_seq : int;  (* sequence number of the last such entry, -1 before any *)
  mutable c_last_at : float;  (* and its timestamp *)
  c_driver : Timed.t;  (* over the call's own network *)
}

let driver t = t.c_driver
let torn t = t.c_torn

let local_box t =
  match t.c_role with Local_call | Origin _ -> t.c_left_box | Acceptor _ -> t.c_right_box

let proxy_box t =
  match t.c_role with
  | Local_call -> None
  | Origin _ -> Some t.c_right_box
  | Acceptor _ -> Some t.c_left_box

(* The ends this daemon runs a goal at. *)
let owned_boxes t =
  match t.c_role with
  | Local_call -> [ t.c_left_box; t.c_right_box ]
  | Origin _ | Acceptor _ -> [ local_box t ]

let kind_of t box = if String.equal box t.c_left_box then t.c_left_kind else t.c_right_kind

(* Per-box media endpoints: symbolic addresses, the port derived
   (stably) from the box name so concurrent calls do not collide. *)
let local_of t box =
  let host = if String.equal box t.c_left_box then "10.9.0.1" else "10.9.0.2" in
  let port = 1024 + (Hashtbl.hash box mod 60000) in
  Local.endpoint ~owner:box (Address.v host port) [ Codec.G711; Codec.G726 ]

let slot_of t box = Netsys.slot_ref ~box ~chan:t.c_id ()

(* Bind the end's current kind through its any-state start, so RESUME
   can re-open from Held; the driver schedules the signals it emits. *)
let engage t box =
  Timed.apply t.c_driver (fun net ->
      Netsys.bind_end net (slot_of t box) (kind_of t box) (local_of t box) Medium.Audio)

(* ------------------------------------------------------------------ *)
(* The bridge crossings                                                *)

let proxy_is_initiator t =
  match t.c_role with Acceptor _ -> true | Local_call | Origin _ -> false

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
    Trace.chan = t.c_id;
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

(* Outbound, from a bridged call's impairment hook: a frame the real
   end emitted toward the proxy.  Hand the wire frame to [send] and,
   if it went out, queue its proxy-side receive; the hook delivers no
   local copy. *)
let ship t ~send (frame : Timed.frame) =
  let tun = frame.Timed.f_send.Netsys.s_tun in
  if send (Wire.Signal_f { chan = t.c_id; tun; signal = frame.Timed.f_signal }) then
    t.c_pending <- t.c_pending @ [ (tun, frame.Timed.f_signal) ]

let create ~make_driver ~id ~role ~left ~right =
  let c_left_box = "L:" ^ id and c_right_box = "R:" ^ id in
  let net = Netsys.add_box (Netsys.add_box Netsys.empty c_left_box) c_right_box in
  let net = Netsys.connect net ~chan:id ~initiator:c_left_box ~acceptor:c_right_box () in
  let t =
    {
      c_id = id;
      c_left_box;
      c_right_box;
      c_role = role;
      c_left_kind = left;
      c_right_kind = right;
      c_torn = false;
      c_proxy_st = P_closed;
      c_pending = [];
      c_monitor = Monitor.create ();
      c_last_seq = -1;
      c_last_at = 0.0;
      c_driver = make_driver net;
    }
  in
  (match role with
  | Local_call -> ()
  | Origin send | Acceptor send ->
    Timed.set_impairment t.c_driver (fun _ frame ->
        ship t ~send frame;
        []));
  List.iter (engage t) (owned_boxes t);
  t

(* Inbound: a wire signal from the peer daemon.  Linearize: flush
   pending proxy receives until this send is legal, record the proxy's
   send, then inject the signal at the real end; the [n] transit
   already happened on the real network, so the only further delay is
   the receiver's compute time, which [inject_frame] adds.  No delivery
   filter reads the frame's id. *)
let receive t ~tun signal =
  (match proxy_box t with
  | Some proxy ->
    flush_pending t ~proxy ~until_legal_for:signal;
    if Trace.enabled () then Trace.emit (Trace.Sig_send (proxy_sig t ~tun ~proxy signal));
    t.c_proxy_st <- after_send t.c_proxy_st signal
  | None -> ());
  Timed.inject_frame t.c_driver ~delay:0.0
    {
      Timed.f_id = 0;
      f_send = { Netsys.s_chan = t.c_id; s_tun = tun; to_ = local_box t };
      f_signal = signal;
    }

(* ------------------------------------------------------------------ *)
(* Control operations                                                  *)

let rebind_local t kind =
  (match t.c_role with
  | Local_call | Origin _ -> t.c_left_kind <- kind
  | Acceptor _ -> t.c_right_kind <- kind);
  engage t (local_box t)

let hold t = rebind_local t Semantics.Hold_end
let resume t = rebind_local t Semantics.Open_end

(* Teardown closes every end this daemon owns; for a bridged call the
   peer end's kind is recorded as closing too — the Bye one daemon
   sends makes the other do the same — so both daemons converge on the
   close/close obligation. *)
let teardown t =
  t.c_torn <- true;
  t.c_left_kind <- Semantics.Close_end;
  t.c_right_kind <- Semantics.Close_end;
  List.iter (engage t) (owned_boxes t)

(* ------------------------------------------------------------------ *)
(* Observation                                                         *)

(* WAIT predicates over the call's network.  For a bridged call only
   the local end is materialised, so the condition reads that end; for
   a local call it reads the paper's path predicate over both. *)
let holds ~path ~one t net =
  let slot box = Netsys.slot net (slot_of t box) in
  match t.c_role with
  | Local_call -> (
    match (slot t.c_left_box, slot t.c_right_box) with
    | Some l, Some r -> path ~left:l ~right:r
    | (Some _ | None), _ -> false)
  | Origin _ | Acceptor _ -> (
    match slot (local_box t) with
    | Some s -> one s
    | None -> false)

let flowing = holds ~path:Semantics.both_flowing ~one:Slot.is_flowing
let closed = holds ~path:Semantics.both_closed ~one:Slot.is_closed

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
  let ends = { Monitor.left = (t.c_left_box, t.c_id, 0); right = (t.c_right_box, t.c_id, 0) } in
  Monitor.judge
    {
      Monitor.structural = false;
      obligation = Semantics.spec_of t.c_left_kind t.c_right_kind;
      legs = [ ends ];
    }
    m

let status_line t =
  let state box =
    match Netsys.slot (Timed.net t.c_driver) (slot_of t box) with
    | Some s -> Slot_state.to_string s.Slot.state
    | None -> "-"
  in
  Printf.sprintf "CALL %s %s %s/%s %s/%s %s" t.c_id
    (match t.c_role with Local_call -> "local" | Origin _ -> "origin" | Acceptor _ -> "acceptor")
    (Control.kind_to_string t.c_left_kind)
    (Control.kind_to_string t.c_right_kind)
    (state t.c_left_box) (state t.c_right_box)
    (Format.asprintf "%a" Monitor.pp_verdict (verdict t))
