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
  mutable sides : side list;  (* at most two, lazily discovered from events *)
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
(* Replay                                                              *)

(* Sides and tunnels are found by scanning short lists with
   [String.equal] and an int compare: a session has a handful of
   tunnels with at most two sides each, so this beats hashing a
   [(chan, tun)] key per event. *)
let rec side_named box = function
  | [] -> None
  | s :: rest -> if String.equal s.s_box box then Some s else side_named box rest

let side_of tun ~box ~initiator =
  match side_named box tun.sides with
  | Some s -> s
  | None ->
    let s = fresh_side ~box ~initiator in
    tun.sides <- tun.sides @ [ s ];
    s

let note_flowing tun at =
  match tun.both_flowing_at with
  | Some _ -> ()
  | None -> (
    match tun.sides with
    | [ a; b ] when a.st = Flowing && b.st = Flowing -> tun.both_flowing_at <- Some at
    | _ -> ())

let quiescent_pair a b =
  match a.st, b.st with
  | Closed, Closed | Flowing, Flowing | Opening, Opened | Opened, Opening -> true
  | (Closed | Opening | Opened | Flowing | Closing), _ -> false

let tunnel_quiescent tun =
  match tun.sides with
  | [ a; b ] -> a.sent = b.recvd && b.sent = a.recvd
  | [ a ] -> a.sent = 0 && a.recvd = 0
  | _ -> true

(* Invariants checked once the trace ends: a tunnel with no signal in
   flight must sit in a protocol-consistent state pair.  In particular a
   side stuck in [Closing] means its close was never acknowledged. *)
let finalize tun =
  if tunnel_quiescent tun then
    match tun.sides with
    | [ a; b ] when not (quiescent_pair a b) ->
      tun.violations <-
        Printf.sprintf "%s.%d: inconsistent quiescent states (%s=%s, %s=%s)" tun.t_chan
          tun.t_tun a.s_box (state_name a.st) b.s_box (state_name b.st)
        :: tun.violations
    | _ -> ()

let rec tunnel_named chan tun = function
  | [] -> None
  | t :: rest ->
    if t.t_tun = tun && String.equal t.t_chan chan then Some t else tunnel_named chan tun rest

(* The tunnels seen so far, newest first. *)
type tunnels = { mutable rev : tunnel list }

let tunnel tbl chan tun =
  match tunnel_named chan tun tbl.rev with
  | Some t -> t
  | None ->
    let t =
      { t_chan = chan; t_tun = tun; sides = []; races = 0; violations = []; both_flowing_at = None }
    in
    tbl.rev <- t :: tbl.rev;
    t

(* The finished machines: the tunnels in first-appearance order,
   finalized.  Everything a session's analysis reports — the report,
   its metrics, and its verdict — is read off one such run. *)
type machines = tunnel list

let finish tbl =
  let ordered = List.rev tbl.rev in
  List.iter finalize ordered;
  ordered

let run_machines events =
  let tbl = { rev = [] } in
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.kind with
      | Trace.Sig_send { chan; tun; box; initiator; signal; _ } ->
        let t = tunnel tbl chan tun in
        on_send t ~seq:e.Trace.seq (side_of t ~box ~initiator) signal;
        note_flowing t e.Trace.at
      | Trace.Sig_recv { chan; tun; box; initiator; signal; _ } ->
        let t = tunnel tbl chan tun in
        on_recv t ~seq:e.Trace.seq (side_of t ~box ~initiator) signal;
        note_flowing t e.Trace.at
      | Trace.Meta_send _ | Trace.Meta_recv _ | Trace.Slot_transition _ | Trace.Goal _
      | Trace.Net _ ->
        ())
    events;
  finish tbl

(* The packed-trace twin of [run_machines]: reads sig entries through
   the flat accessors, so replaying a fleet session's trace never
   materializes per-event records.  [seq] in violation messages is the
   entry index — exactly the seq a sink recording would have given. *)
let run_packed (p : Trace.Packed.t) =
  let tbl = { rev = [] } in
  let n = Trace.Packed.length p in
  for i = 0 to n - 1 do
    let tg = Trace.Packed.tag p i in
    if tg <= 1 then begin
      let t = tunnel tbl (Trace.Packed.sig_chan p i) (Trace.Packed.sig_tun p i) in
      let side =
        side_of t ~box:(Trace.Packed.sig_box p i) ~initiator:(Trace.Packed.sig_initiator p i)
      in
      let signal = Trace.Packed.sig_signal p i in
      if tg = 0 then on_send t ~seq:i side signal else on_recv t ~seq:i side signal;
      note_flowing t (Trace.Packed.at p i)
    end
  done;
  finish tbl

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

let report (machines : machines) =
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
          tunnel_violations = List.rev t.violations;
        })
      machines
  in
  { tunnels = reports; violations = List.concat_map (fun r -> r.tunnel_violations) reports }

let replay events = report (run_machines events)
let replay_packed p = report (run_packed p)

let conformant r = r.violations = []

(* ------------------------------------------------------------------ *)
(* Finite-trace obligations                                            *)

type obligation =
  | Eventually_always_closed
  | Eventually_always_not_flowing
  | Always_eventually_flowing
  | Closed_or_flowing

let obligation_to_string = function
  | Eventually_always_closed -> "<>[] bothClosed"
  | Eventually_always_not_flowing -> "<>[] !bothFlowing"
  | Always_eventually_flowing -> "[]<> bothFlowing"
  | Closed_or_flowing -> "(<>[] bothClosed) \\/ ([]<> bothFlowing)"

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
let verdict_of_machines ~structural obligation ~legs tunnels =
  let all_violations = List.concat_map (fun (t : tunnel) -> List.rev t.violations) tunnels in
  match all_violations with
  | v :: _ -> Violated ("protocol violation: " ^ v)
  | [] ->
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

let judge j machines =
  verdict_of_machines ~structural:j.structural j.obligation ~legs:j.legs machines

let verdict_legs ?(structural = false) obligation ~legs events =
  verdict_of_machines ~structural obligation ~legs (run_machines events)

let verdict ?(structural = false) obligation ~ends events =
  verdict_of_machines ~structural obligation ~legs:[ ends ] (run_machines events)

let verdict_packed ?(structural = false) obligation ~ends p =
  verdict_of_machines ~structural obligation ~legs:[ ends ] (run_packed p)

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
