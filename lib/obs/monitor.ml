open Mediactl_types

(* The monitor re-implements the Figure-5 media-channel state machine
   from the paper directly, on purpose: it shares no code with
   [Mediactl_protocol.Slot], so it is an independent oracle for the
   implementation's captured behaviour rather than a replay of the same
   transition function. *)

type side_state = Closed | Opening | Opened | Flowing | Closing

let state_name = function
  | Closed -> "closed"
  | Opening -> "opening"
  | Opened -> "opened"
  | Flowing -> "flowing"
  | Closing -> "closing"

type side = {
  s_box : string;
  s_initiator : bool;
  mutable st : side_state;
  mutable medium : Medium.t option;
  mutable sent_desc : Descriptor.t option;
  mutable remote_desc : Descriptor.t option;
  mutable sent_sel : Selector.t option;
  mutable recv_sel : Selector.t option;
  mutable sent : int;
  mutable recvd : int;
}

let fresh_side ~box ~initiator =
  {
    s_box = box;
    s_initiator = initiator;
    st = Closed;
    medium = None;
    sent_desc = None;
    remote_desc = None;
    sent_sel = None;
    recv_sel = None;
    sent = 0;
    recvd = 0;
  }

let wipe side =
  side.st <- Closed;
  side.medium <- None;
  side.sent_desc <- None;
  side.remote_desc <- None;
  side.sent_sel <- None;
  side.recv_sel <- None

(* Mirrors of the Lenabled/Renabled history variables: a side receives
   media while flowing with a fresh, transmitting selector answering its
   own current descriptor. *)
let sel_fresh sel desc =
  match sel, desc with
  | Some sel, Some desc -> Selector.responds_to_descriptor sel desc
  | (Some _ | None), _ -> false

let rx_enabled side =
  side.st = Flowing
  && sel_fresh side.recv_sel side.sent_desc
  && match side.recv_sel with Some s -> Selector.transmits s | None -> false

let tx_enabled side =
  side.st = Flowing
  && sel_fresh side.sent_sel side.remote_desc
  && match side.sent_sel with Some s -> Selector.transmits s | None -> false

type tunnel = {
  t_chan : string;
  t_tun : int;
  mutable sides : side list;  (* at most two, in order of first appearance *)
  mutable races : int;
  mutable violations : string list;  (* reversed *)
  mutable both_flowing_at : float option;
}

(* ------------------------------------------------------------------ *)
(* The Figure-5 transitions                                            *)

let violate tun ~seq ~box msg =
  tun.violations <-
    Printf.sprintf "#%d %s.%d %s: %s" seq tun.t_chan tun.t_tun box msg :: tun.violations

let on_send tun ~seq side (signal : Signal.t) =
  side.sent <- side.sent + 1;
  match signal, side.st with
  | Signal.Open (m, d), Closed ->
    side.st <- Opening;
    side.medium <- Some m;
    side.sent_desc <- Some d
  | Signal.Oack d, Opened ->
    side.st <- Flowing;
    side.sent_desc <- Some d
  | Signal.Close, (Opening | Opened | Flowing) -> side.st <- Closing
  | Signal.Closeack, (Closed | Closing) -> ()
  | Signal.Describe d, Flowing -> side.sent_desc <- Some d
  | Signal.Select s, Flowing -> side.sent_sel <- Some s
  | signal, st ->
    violate tun ~seq ~box:side.s_box
      (Printf.sprintf "illegal send of %s in %s" (Signal.name signal) (state_name st))

let on_recv tun ~seq side (signal : Signal.t) =
  side.recvd <- side.recvd + 1;
  match signal, side.st with
  | Signal.Open (m, d), Closed ->
    side.st <- Opened;
    side.medium <- Some m;
    side.remote_desc <- Some d
  | Signal.Open (m, d), Opening ->
    (* One crossing produces this case at both ends; count the race
       once, at the winning (initiator) side. *)
    if side.s_initiator then tun.races <- tun.races + 1;
    if not side.s_initiator then begin
      (* The acceptor backs off and takes the initiator's open. *)
      side.st <- Opened;
      side.medium <- Some m;
      side.remote_desc <- Some d;
      side.sent_desc <- None
    end
  | Signal.Open _, Closing -> ()  (* stale crossing open; the peer backs off *)
  | Signal.Oack d, Opening ->
    side.st <- Flowing;
    side.remote_desc <- Some d
  | Signal.Oack _, Closing -> ()  (* acceptance crossed our close *)
  | Signal.Close, (Opening | Opened | Flowing) -> wipe side
  | Signal.Close, Closing -> ()  (* crossed closes; both acknowledge *)
  | Signal.Closeack, Closing -> wipe side
  | Signal.Describe d, Flowing -> side.remote_desc <- Some d
  | Signal.Select s, Flowing -> side.recv_sel <- Some s
  | (Signal.Describe _ | Signal.Select _), Closing -> ()
  | signal, st ->
    violate tun ~seq ~box:side.s_box
      (Printf.sprintf "unexpected %s in %s" (Signal.name signal) (state_name st))

(* ------------------------------------------------------------------ *)
(* The monitor: one step per entry                                     *)

(* Sides and tunnels are found by scanning short lists with
   [String.equal] and an int compare: a session has a handful of
   tunnels with at most two sides each, so this beats hashing a
   [(chan, tun)] key per event. *)
let rec side_named box = function
  | [] -> None
  | s :: rest -> if String.equal s.s_box box then Some s else side_named box rest

let rec tunnel_named chan tun = function
  | [] -> None
  | t :: rest ->
    if t.t_tun = tun && String.equal t.t_chan chan then Some t else tunnel_named chan tun rest

(* The tunnels seen so far, newest first.  The same value is a
   finished offline run and a live monitor that may take more steps:
   nothing is decided at the end of a trace, every check that speaks
   about the cutoff is made when the monitor is read. *)
type t = { mutable rev : tunnel list }

let create () = { rev = [] }

(* [tunnel_named] without the option: the per-entry lookup allocates
   only when a tunnel first appears. *)
let rec tunnel_in m chan tun = function
  | t :: rest ->
    if t.t_tun = tun && String.equal t.t_chan chan then t else tunnel_in m chan tun rest
  | [] ->
    let t =
      { t_chan = chan; t_tun = tun; sides = []; races = 0; violations = []; both_flowing_at = None }
    in
    m.rev <- t :: m.rev;
    t

let tunnel m chan tun = tunnel_in m chan tun m.rev

let on_signal t ~seq ~recv side signal =
  if recv then on_recv t ~seq side signal else on_send t ~seq side signal

(* One signal at [box]: a tunnel has two ends, so a third box is a
   violation at the entry where it appears, and is not made a side. *)
let advance t ~seq ~recv ~box ~initiator signal =
  match t.sides with
  | [] ->
    let s = fresh_side ~box ~initiator in
    t.sides <- [ s ];
    on_signal t ~seq ~recv s signal
  | [ a ] ->
    if String.equal a.s_box box then on_signal t ~seq ~recv a signal
    else begin
      let s = fresh_side ~box ~initiator in
      t.sides <- [ a; s ];
      on_signal t ~seq ~recv s signal
    end
  | a :: b :: _ ->
    if String.equal a.s_box box then on_signal t ~seq ~recv a signal
    else if String.equal b.s_box box then on_signal t ~seq ~recv b signal
    else
      violate t ~seq ~box
        (Printf.sprintf "a third box on the tunnel, whose ends are %s and %s" a.s_box b.s_box)

(* Whether the step just taken brought both sides to Flowing for the
   first time; the caller then reads the entry's timestamp. *)
let newly_flowing t =
  match t.both_flowing_at, t.sides with
  | None, [ a; b ] -> a.st = Flowing && b.st = Flowing
  | (None | Some _), _ -> false

(* A packed signal entry steps its tunnel.  [seq] in violation
   messages is the entry's sequence number, continuous across drained
   segments. *)
let step_signal m p i ~recv =
  let t = tunnel m (Trace.Packed.sig_chan p i) (Trace.Packed.sig_tun p i) in
  advance t ~seq:(Trace.Packed.seq p i) ~recv ~box:(Trace.Packed.sig_box p i)
    ~initiator:(Trace.Packed.sig_initiator p i) (Trace.Packed.sig_signal p i);
  if newly_flowing t then t.both_flowing_at <- Some (Trace.Packed.at p i)

(* Other entries are not the monitor's business. *)
let step m p i =
  let tg = Trace.Packed.tag p i in
  if tg <= 1 then step_signal m p i ~recv:(tg = 1)

let observe_signal m ~seq ~at ~recv (s : Trace.sig_event) =
  let t = tunnel m s.Trace.chan s.Trace.tun in
  advance t ~seq ~recv ~box:s.Trace.box ~initiator:s.Trace.initiator s.Trace.signal;
  if newly_flowing t then t.both_flowing_at <- Some at

let observe m (e : Trace.event) =
  match e.Trace.kind with
  | Trace.Sig_send s -> observe_signal m ~seq:e.Trace.seq ~at:e.Trace.at ~recv:false s
  | Trace.Sig_recv s -> observe_signal m ~seq:e.Trace.seq ~at:e.Trace.at ~recv:true s
  | Trace.Meta_send _ | Trace.Meta_recv _ | Trace.Slot_transition _ | Trace.Goal _
  | Trace.Net _ ->
    ()

let copy m =
  let copy_tunnel t = { t with sides = List.map (fun s -> { s with st = s.st }) t.sides } in
  { rev = List.map copy_tunnel m.rev }

(* [step] over every entry, its tag test inlined so that the entries
   the monitor skips cost no call. *)
let run_packed p =
  let m = create () in
  for i = 0 to Trace.Packed.length p - 1 do
    let tg = Trace.Packed.tag p i in
    if tg <= 1 then step_signal m p i ~recv:(tg = 1)
  done;
  m

(* ------------------------------------------------------------------ *)
(* Reading the machines                                                *)

let quiescent_pair a b =
  match a.st, b.st with
  | Closed, Closed | Flowing, Flowing | Opening, Opened | Opened, Opening -> true
  | (Closed | Opening | Opened | Flowing | Closing), _ -> false

let tunnel_quiescent tun =
  match tun.sides with
  | [ a; b ] -> a.sent = b.recvd && b.sent = a.recvd
  | [ a ] -> a.sent = 0 && a.recvd = 0
  | _ -> true

(* A tunnel's violations in order, followed by the one invariant that
   speaks about the cutoff: a tunnel with no signal in flight must sit
   in a protocol-consistent state pair.  In particular a side stuck in
   [Closing] means its close was never acknowledged. *)
let tunnel_violations tun =
  let at_cutoff =
    match tun.sides with
    | [ a; b ] when tunnel_quiescent tun && not (quiescent_pair a b) ->
      [
        Printf.sprintf "%s.%d: inconsistent quiescent states (%s=%s, %s=%s)" tun.t_chan tun.t_tun
          a.s_box (state_name a.st) b.s_box (state_name b.st);
      ]
    | _ -> []
  in
  List.rev_append tun.violations at_cutoff

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)

type side_summary = {
  box : string;
  side_initiator : bool;
  final : string;
  enabled_rx : bool;
  enabled_tx : bool;
}

type tunnel_report = {
  chan : string;
  tun : int;
  summaries : side_summary list;
  sends : int;
  recvs : int;
  races : int;
  quiescent : bool;
  first_all_flowing : float option;
  tunnel_violations : string list;
}

type report = { tunnels : tunnel_report list; violations : string list }

let report m =
  let reports =
    List.map
      (fun t ->
        {
          chan = t.t_chan;
          tun = t.t_tun;
          summaries =
            List.map
              (fun s ->
                {
                  box = s.s_box;
                  side_initiator = s.s_initiator;
                  final = state_name s.st;
                  enabled_rx = rx_enabled s;
                  enabled_tx = tx_enabled s;
                })
              t.sides;
          sends = List.fold_left (fun acc s -> acc + s.sent) 0 t.sides;
          recvs = List.fold_left (fun acc s -> acc + s.recvd) 0 t.sides;
          races = t.races;
          quiescent = tunnel_quiescent t;
          first_all_flowing = t.both_flowing_at;
          tunnel_violations = tunnel_violations t;
        })
      (List.rev m.rev)
  in
  { tunnels = reports; violations = List.concat_map (fun r -> r.tunnel_violations) reports }

let replay_packed p = report (run_packed p)

let conformant r = r.violations = []

(* ------------------------------------------------------------------ *)
(* Finite-trace obligations                                            *)

type obligation =
  | Eventually_always_closed
  | Eventually_always_not_flowing
  | Always_eventually_flowing
  | Closed_or_flowing

type verdict = Satisfied | Violated of string | Undetermined of string

let pp_verdict ppf = function
  | Satisfied -> Format.pp_print_string ppf "satisfied"
  | Violated msg -> Format.fprintf ppf "VIOLATED: %s" msg
  | Undetermined msg -> Format.fprintf ppf "undetermined at cutoff: %s" msg

type ends = { left : string * string * int; right : string * string * int }

type judgement = { structural : bool; obligation : obligation; legs : ends list }

let find_side tunnels (box, chan, tun) =
  match tunnel_named chan tun tunnels with
  | None -> None
  | Some t -> side_named box t.sides

(* The path predicates, mirroring [Mediactl_core.Semantics]:
   [both_closed] and the agreement form of [both_flowing] (matching
   media, exchanged descriptors, fresh selectors at both ends).
   [structural] drops the agreement refinement — the form the model
   checker uses under loss budgets, where nothing retransmits. *)
let opt_equal eq a b =
  match a, b with
  | Some x, Some y -> eq x y
  | (Some _ | None), _ -> false

let both_closed l r = l.st = Closed && r.st = Closed
let ends_flowing l r = l.st = Flowing && r.st = Flowing

let both_flowing l r =
  ends_flowing l r
  && opt_equal Medium.equal l.medium r.medium
  && opt_equal Descriptor.equal l.remote_desc r.sent_desc
  && opt_equal Descriptor.equal r.remote_desc l.sent_desc
  && sel_fresh l.recv_sel l.sent_desc && sel_fresh r.recv_sel r.sent_desc

(* On a finite trace a liveness obligation can only be decided at a
   quiescent cutoff, where infinite stuttering of the final state is the
   sole continuation the system itself would produce — exactly the
   terminal-state checks of the model checker ([Temporal]).  A
   non-quiescent cutoff leaves every obligation undetermined.

   The obligation quantifies over a list of legs — one end-slot pair per
   leg.  A two-ended path is the one-leg case; a conference star
   contributes one leg per participant (participant slot against the
   mixer's bridge slot), and the N-way predicates are the conjunction
   over legs: allClosed / allFlowing. *)
let rec first_violation = function
  | [] -> None
  | t :: rest -> (
    match tunnel_violations t with v :: _ -> Some v | [] -> first_violation rest)

let judge { structural; obligation; legs } m =
  let tunnels = List.rev m.rev in
  match first_violation tunnels with
  | Some v -> Violated ("protocol violation: " ^ v)
  | None ->
    if not (List.for_all tunnel_quiescent tunnels) then
      Undetermined "signals still in flight"
    else (
      (* An end slot absent from the trace never signalled: it is still
         in its initial Closed state. *)
      let side_or_initial (box, _, _ as slot_ref) =
        match find_side tunnels slot_ref with
        | Some s -> s
        | None -> fresh_side ~box ~initiator:false
      in
      let pairs =
        List.map (fun e -> (side_or_initial e.left, side_or_initial e.right)) legs
      in
      let n_legs = List.length pairs in
      (* Name the first leg failing [pred] when there is more than one,
         so a star violation says which participant stalled. *)
      let where pred =
        if n_legs <= 1 then ""
        else
          let rec go k = function
            | [] -> ""
            | (l, r) :: rest -> if pred l r then go (k + 1) rest else Printf.sprintf " (leg %d)" k
          in
          go 0 pairs
      in
      let flowing_pred l r = if structural then ends_flowing l r else both_flowing l r in
      let flowing = List.for_all (fun (l, r) -> flowing_pred l r) pairs in
      let closed = List.for_all (fun (l, r) -> both_closed l r) pairs in
      let sat cond msg = if cond then Satisfied else Violated msg in
      match obligation with
      | Eventually_always_closed ->
        sat closed ("terminal state is not bothClosed" ^ where both_closed)
      | Eventually_always_not_flowing ->
        sat (not flowing) "terminal state satisfies bothFlowing"
      | Always_eventually_flowing ->
        sat flowing ("terminal state violates bothFlowing" ^ where flowing_pred)
      | Closed_or_flowing ->
        sat (closed || flowing) "terminal state is neither bothClosed nor bothFlowing")

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let pp_tunnel_report ppf r =
  Format.fprintf ppf "%s.%d  %s  sends=%d recvs=%d races=%d%s%s" r.chan r.tun
    (String.concat "/"
       (List.map
          (fun s ->
            Printf.sprintf "%s:%s%s" s.box s.final (if s.enabled_rx then "+rx" else ""))
          r.summaries))
    r.sends r.recvs r.races
    (if r.quiescent then "" else "  IN-FLIGHT")
    (match r.tunnel_violations with
    | [] -> ""
    | vs -> Printf.sprintf "  %d VIOLATION(S)" (List.length vs))

let pp_report ppf r =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_tunnel_report)
    r.tunnels;
  match r.violations with
  | [] -> ()
  | vs ->
    Format.fprintf ppf "@.@[<v>violations:@ %a@]"
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut Format.pp_print_string)
      vs
