open Mediactl_types
open Mediactl_protocol
open Mediactl_signaling
open Mediactl_core

type slot_key = { chan : string; tun : int }
type slot_ref = { box : string; key : slot_key }

let slot_ref ~box ~chan ?(tun = 0) () = { box; key = { chan; tun } }

type send = { s_chan : string; s_tun : int; to_ : string }

type binding = End_b of End_goal.t | Link_b of string * Flow_link.side | Unbound

type box = {
  slots : (slot_key * Slot.t) list;
  bindings : (slot_key * binding) list;
  links : (string * (Flow_link.t * slot_key * slot_key)) list;
}

type t = {
  boxes : (string * box) list;
  chans : (string * Channel.t) list;
  error : string option;
}

let empty = { boxes = []; chans = []; error = None }

let err t = t.error
let fail t msg = { t with error = Some (match t.error with None -> msg | Some e -> e) }
let failed t = match t.error with None -> false | Some _ -> true

(* Association lists with monomorphic keys.  Every delivery looks up
   and replaces a box, a channel, a slot and a binding, so the keys are
   compared with [String.equal] and [key_equal], never with the
   polymorphic [caml_compare] behind [List.assoc].  A replace moves the
   entry to the head: the channel list's order is the settle order
   (see [first_deliverable]). *)
let key_equal a b = a.tun = b.tun && String.equal a.chan b.chan

let rec find_str name = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k name then Some v else find_str name rest

let rec mem_str name = function
  | [] -> false
  | (k, _) :: rest -> String.equal k name || mem_str name rest

let rec remove_str name = function
  | [] -> []
  | ((k, _) as pair) :: rest -> if String.equal k name then rest else pair :: remove_str name rest

let replace_str name value l = (name, value) :: remove_str name l

let rec find_key key = function
  | [] -> None
  | (k, v) :: rest -> if key_equal k key then Some v else find_key key rest

let rec remove_key key = function
  | [] -> []
  | ((k, _) as pair) :: rest -> if key_equal k key then rest else pair :: remove_key key rest

let replace_key key value l = (key, value) :: remove_key key l

let find_box t name = find_str name t.boxes

let set_box t name box = { t with boxes = replace_str name box t.boxes }

let find_chan t name = find_str name t.chans

let set_chan t name chan = { t with chans = replace_str name chan t.chans }

let add_box t name =
  if failed t then t
  else if mem_str name t.boxes then fail t (Printf.sprintf "box %s already exists" name)
  else set_box t name { slots = []; bindings = []; links = [] }

let connect t ~chan ?(tunnels = 1) ~initiator ~acceptor () =
  if failed t then t
  else if mem_str chan t.chans then fail t (Printf.sprintf "channel %s already exists" chan)
  else
    match find_box t initiator, find_box t acceptor with
    | None, _ -> fail t (Printf.sprintf "unknown box %s" initiator)
    | _, None -> fail t (Printf.sprintf "unknown box %s" acceptor)
    | Some ibox, Some abox ->
      let channel = Channel.create ~label:chan ~tunnels ~initiator ~acceptor () in
      let add_slots box role prefix =
        let extra =
          List.init tunnels (fun tun ->
              ( { chan; tun },
                Slot.create ~label:(Printf.sprintf "%s.%s.%d" prefix chan tun) role ))
        in
        {
          box with
          slots = box.slots @ extra;
          bindings = box.bindings @ List.map (fun (k, _) -> (k, Unbound)) extra;
        }
      in
      let t = set_chan t chan channel in
      let t = set_box t initiator (add_slots ibox Slot.Channel_initiator initiator) in
      set_box t acceptor (add_slots abox Slot.Channel_acceptor acceptor)

let slot t { box; key } =
  match find_box t box with None -> None | Some b -> find_key key b.slots

let binding t { box; key } =
  match find_box t box with None -> None | Some b -> find_key key b.bindings

let slots_of_box t name =
  match find_box t name with
  | None -> []
  | Some b -> b.slots

let boxes t = List.rev_map fst t.boxes
let channels t = List.rev_map fst t.chans
let has_channel t name = mem_str name t.chans

let peer_of_chan t ~chan ~box =
  match find_chan t chan with
  | None -> None
  | Some channel ->
    if String.equal (Channel.initiator channel) box then Some (Channel.acceptor channel)
    else if String.equal (Channel.acceptor channel) box then Some (Channel.initiator channel)
    else None

(* Dissolve the flowlink named [id] in [box]; both member slots become
   unbound. *)
let dissolve_link box id =
  match find_str id box.links with
  | None -> box
  | Some (_, k1, k2) ->
    {
      box with
      links = remove_str id box.links;
      bindings =
        List.map
          (fun (k, b) -> if key_equal k k1 || key_equal k k2 then (k, Unbound) else (k, b))
          box.bindings;
    }

let release_slot box key =
  match find_key key box.bindings with
  | Some (Link_b (id, _)) -> dissolve_link box id
  | Some (End_b _ | Unbound) | None ->
    { box with bindings = replace_key key Unbound box.bindings }

let disconnect t ~chan =
  if failed t then t
  else
    match find_chan t chan with
    | None -> fail t (Printf.sprintf "unknown channel %s" chan)
    | Some channel ->
      let strip t box_name =
        match find_box t box_name with
        | None -> t
        | Some box ->
          (* Release links touching this channel first, then drop the
             slots themselves. *)
          let box =
            List.fold_left
              (fun box (id, (_, k1, k2)) ->
                if String.equal k1.chan chan || String.equal k2.chan chan then
                  dissolve_link box id
                else box)
              box box.links
          in
          let keep (k, _) = not (String.equal k.chan chan) in
          set_box t box_name
            { box with slots = List.filter keep box.slots; bindings = List.filter keep box.bindings }
      in
      let t = strip t (Channel.initiator channel) in
      let t = strip t (Channel.acceptor channel) in
      { t with chans = remove_str chan t.chans }

(* ------------------------------------------------------------------ *)
(* Emission routing                                                    *)

(* Interned delivery work-items.  A [send] names (channel, tunnel,
   direction) — a tiny static population per topology — yet the seed
   allocated a fresh record per emitted signal on the hottest path in
   the fleet kernel.  Each domain interns the records in a DLS table
   keyed by channel label, slotted [2 * tun + side]; the records are
   immutable, so reuse across sessions sharing a label on the same
   domain is safe as long as the box names still match — which the
   [to_] check below re-validates, self-healing when two scenarios
   reuse a label for differently-named boxes.

   The table is keyed by the channel's own label ([Channel.label]):
   one physical string per channel for a session's lifetime, however
   the caller spelled the channel's name.  So the {!Ident_cache} in
   front of it hits on every emission after a channel's first, and
   the hit path skips [caml_hash]. *)
let label_cache_size = 64

type routes = { mutable sends : send option array (* slot [2 * tun + side] *) }

type send_tables = {
  by_label : (string, routes) Hashtbl.t;
  cache : (string, routes) Ident_cache.t;
}

let send_tables_key =
  Domain.DLS.new_key (fun () ->
      {
        by_label = Hashtbl.create 32;
        (* a fresh block no caller can hold *)
        cache = Ident_cache.create label_cache_size ~absent:(String.make 1 '\000') { sends = [||] };
      })

let routes_of_label tbl label =
  match Hashtbl.find tbl.by_label label with
  | routes -> routes
  | exception Not_found ->
    let routes =
      ({ sends = [||] }
      [@lint.allow
        "alloc: one route record per first-seen channel label; E15 charges interning to \
         session setup"])
    in
    Hashtbl.add tbl.by_label label routes;
    routes

(* The hit path is a cache probe + an array load: no [Some] box per
   lookup (the option the steady state would otherwise allocate on
   every emitted signal). *)
let interned_send channel ~tun ~to_ =
  let tbl = Domain.DLS.get send_tables_key in
  let label = Channel.label channel in
  let routes =
    Ident_cache.find tbl.cache ~slot:(Ident_cache.string_slot label) label tbl routes_of_label
  in
  let idx = (2 * tun) + if String.equal to_ (Channel.initiator channel) then 0 else 1 in
  if idx >= Array.length routes.sends then begin
    let arr =
      (Array.make (Int.max (2 * Channel.tunnel_count channel) (idx + 1)) None
      [@lint.allow
        "alloc: route slots on a first-seen channel label, regrown when a channel gains \
         tunnels; first-seen only, E15 charges interning to session setup"])
    in
    Array.blit routes.sends 0 arr 0 (Array.length routes.sends);
    routes.sends <- arr
  end;
  let arr = routes.sends in
  match arr.(idx) with
  | Some s when String.equal s.to_ to_ -> s
  | Some _ | None ->
    let s =
      ({ s_chan = label; s_tun = tun; to_ }
      [@lint.allow
        "alloc: the interned send record itself — built once per (channel, tunnel, \
         direction) and reused for every later emission on that route"])
    in
    arr.(idx) <-
      (Some s
      [@lint.allow "alloc: one option box per interned route, same first-seen budget as the record"]);
    s

let emit_signals t box_name key signals =
  let rec go t acc = function
    | [] -> (t, List.rev acc)
    | signal :: rest -> (
      match t.error, find_chan t key.chan with
      | Some _, _ -> go t acc rest
      | None, None -> go (fail t (Printf.sprintf "unknown channel %s" key.chan)) acc rest
      | None, Some channel ->
        let channel = Channel.send_signal channel ~from_box:box_name ~tunnel:key.tun signal in
        let t = set_chan t key.chan channel in
        let s =
          interned_send channel ~tun:key.tun ~to_:(Channel.peer_of channel box_name)
        in
        go t (s :: acc) rest)
  in
  match signals with [] -> (t, []) | signals -> go t [] signals

let with_slot box key slot = { box with slots = replace_key key slot box.slots }

let with_binding box key b = { box with bindings = replace_key key b box.bindings }

(* ------------------------------------------------------------------ *)
(* Binding operations                                                  *)

let of_goal_result t f = function
  | Ok x -> f x
  | Error e -> (fail t (Goal_error.to_string e), [])

(* Commit a goal's start or step at [key] of [box]: the goal it leaves
   becomes the slot's binding, and its signals go into the slot's
   tunnel. *)
let step_end t box_name box key r =
  of_goal_result t
    (fun (o : End_goal.outcome) ->
      let box = with_binding (with_slot box key o.End_goal.slot) key (End_b o.End_goal.goal) in
      emit_signals (set_box t box_name box) box_name key o.End_goal.out)
    r

let bind_goal t { box = box_name; key } start =
  if failed t then (t, [])
  else
    match find_box t box_name with
    | None -> (fail t (Printf.sprintf "unknown box %s" box_name), [])
    | Some box -> (
      match find_key key box.slots with
      | None -> (fail t (Printf.sprintf "no slot %s.%d in %s" key.chan key.tun box_name), [])
      | Some slot -> step_end t box_name (release_slot box key) key (start slot))

let bind_open t r local medium = bind_goal t r (End_goal.open_slot local medium)
let bind_end t r kind local medium = bind_goal t r (End_goal.engage kind local medium)
let bind_close t r = bind_goal t r End_goal.close_slot
let bind_hold t r local = bind_goal t r (End_goal.hold_slot local)

let route_link_emissions t box_name k1 k2 out =
  let t, rev =
    List.fold_left
      (fun (t, acc) (side, signal) ->
        let key = match side with Flow_link.Left -> k1 | Flow_link.Right -> k2 in
        let t, more = emit_signals t box_name key [ signal ] in
        (t, List.rev_append more acc))
      (t, []) out
  in
  (t, List.rev rev)

let bind_link t ~box:box_name ~id k1 k2 =
  if failed t then (t, [])
  else
    match find_box t box_name with
    | None -> (fail t (Printf.sprintf "unknown box %s" box_name), [])
    | Some box -> (
      if key_equal k1 k2 then (fail t "flowlink needs two distinct slots", [])
      else
        match find_key k1 box.slots, find_key k2 box.slots with
        | None, _ | _, None -> (fail t (Printf.sprintf "missing slot for link %s" id), [])
        | Some s1, Some s2 ->
          (* Release the member slots first: rebinding may reuse the
             name of the link being dissolved. *)
          let box = release_slot (release_slot box k1) k2 in
          if mem_str id box.links then
            (fail t (Printf.sprintf "link %s already exists in %s" id box_name), [])
          else
          of_goal_result t
            (fun (o : Flow_link.outcome) ->
              let box = with_slot (with_slot box k1 o.Flow_link.left) k2 o.Flow_link.right in
              let box =
                with_binding
                  (with_binding box k1 (Link_b (id, Flow_link.Left)))
                  k2
                  (Link_b (id, Flow_link.Right))
              in
              let box =
                { box with links = (id, (o.Flow_link.goal, k1, k2)) :: box.links }
              in
              route_link_emissions (set_box t box_name box) box_name k1 k2 o.Flow_link.out)
            (Flow_link.start s1 s2))

let modify t ({ box = box_name; key } as r) mute =
  if failed t then (t, [])
  else
    match find_box t box_name, slot t r, binding t r with
    | None, _, _ | _, None, _ | _, _, None ->
      (fail t (Printf.sprintf "modify: no slot %s.%d in %s" key.chan key.tun box_name), [])
    | Some box, Some slot, Some (End_b g) ->
      step_end t box_name box key (End_goal.modify g slot mute)
    | Some _, Some _, Some (Link_b _ | Unbound) ->
      (fail t "modify: slot is not endpoint-bound", [])

(* ------------------------------------------------------------------ *)
(* Meta-signals                                                        *)

let send_meta t ~chan ~from meta =
  if failed t then t
  else
    match find_chan t chan with
    | None -> fail t (Printf.sprintf "unknown channel %s" chan)
    | Some channel -> set_chan t chan (Channel.send_meta channel ~from_box:from meta)

let take_meta t ~chan ~at =
  match t.error, find_chan t chan with
  | Some _, _ | None, None -> None
  | None, Some channel -> (
    match Channel.receive_meta channel ~at_box:at with
    | None -> None
    | Some (meta, channel) ->
      if Mediactl_obs.Trace.enabled () then Mediactl_obs.Trace.meta_recv ~chan ~box:at;
      Some (meta, set_chan t chan channel))

(* ------------------------------------------------------------------ *)
(* Delivery                                                            *)

let deliverables t =
  List.concat_map
    (fun (_, channel) ->
      List.concat_map
        (fun tun ->
          let pending_at box_name =
            let at = Channel.end_of channel box_name in
            Tunnel.has_pending ~toward:at (Channel.tunnel channel tun)
          in
          let one box_name =
            if pending_at box_name then [ interned_send channel ~tun ~to_:box_name ]
            else []
          in
          one (Channel.initiator channel) @ one (Channel.acceptor channel))
        (List.init (Channel.tunnel_count channel) Fun.id))
    (List.rev t.chans)

(* The head of [deliverables] without building the list: the untimed
   settle loop below pops one send per step, so materializing every
   pending (channel, tunnel, direction) each step made settling a
   topology quadratic in pending work.  Traversal order matches
   [deliverables] exactly — reversed channel list, tunnels in order,
   initiator before acceptor — so settles deliver in the same order. *)
(* The loops live at top level — as nested [let rec]s they would close
   over the channel per call and allocate on every settle step — and
   the per-tunnel [pending_at] helper is inlined for the same reason. *)
let rec fd_tun_loop channel tunnels tun =
  if tun >= tunnels then None
  else
    let tunnel = Channel.tunnel channel tun in
    let ini = Channel.initiator channel in
    if Tunnel.has_pending ~toward:(Channel.end_of channel ini) tunnel then
      (Some (interned_send channel ~tun ~to_:ini)
      [@lint.allow
        "alloc: one option box per settle-loop step; settling is the per-arrival phase E15 \
         charges to session work, not the steady drain"])
    else
      let acc = Channel.acceptor channel in
      if Tunnel.has_pending ~toward:(Channel.end_of channel acc) tunnel then
        (Some (interned_send channel ~tun ~to_:acc)
        [@lint.allow "alloc: one option box per settle-loop step, as above"])
      else fd_tun_loop channel tunnels (tun + 1)

let rec fd_chan_loop = function
  | [] -> None
  | (_, channel) :: rest -> (
    match fd_tun_loop channel (Channel.tunnel_count channel) 0 with
    | Some _ as s -> s
    | None -> fd_chan_loop rest)

let first_deliverable t =
  fd_chan_loop
    ((List.rev t.chans)
    [@lint.allow
      "alloc: one spine copy per settle step to preserve [deliverables]' traversal order \
       (reversed channel list); O(channels), charged by E15 to settling"])
[@@lint.hotpath]

(* Emitting the receive here — rather than in [Channel.receive_signal] —
   puts the event at the commit point shared by both delivery paths:
   direct delivery and impaired frames re-injected by [Timed].  (The
   impairment path pops the tunnel via [take] long before the frame is
   actually delivered, so the pop is not the receive.) *)
let dispatch_signal t box_name key signal =
  if Mediactl_obs.Trace.enabled () then
    (match find_chan t key.chan with
    | Some channel ->
      Mediactl_obs.Trace.sig_recv ~chan:(Channel.label channel) ~tun:key.tun ~box:box_name
        ~peer:(Channel.peer_of channel box_name)
        ~initiator:(String.equal (Channel.initiator channel) box_name)
        signal
    | None -> ());
  match find_box t box_name with
  | None -> (fail t (Printf.sprintf "unknown box %s" box_name), [])
  | Some box -> (
    match find_key key box.bindings with
    | None ->
      ( fail t
          (Printf.sprintf "signal %s arrived at unknown slot %s.%d of %s" (Signal.name signal)
             key.chan key.tun box_name),
        [] )
    | Some Unbound -> (
      (* No goal object controls the slot yet (the box program has not
         decided, or a device user has not answered): the slot tracks
         protocol state passively; only protocol-automatic replies go
         out. *)
      match find_key key box.slots with
      | None -> (fail t "missing slot", [])
      | Some slot -> (
        match Slot.receive slot signal with
        | Error e -> (fail t (Slot.error_to_string e), [])
        | Ok (slot, auto, _notes) ->
          emit_signals (set_box t box_name (with_slot box key slot)) box_name key auto))
    | Some (End_b g) -> (
      match find_key key box.slots with
      | None -> (fail t "missing slot", [])
      | Some slot -> step_end t box_name box key (End_goal.on_signal g slot signal))
    | Some (Link_b (id, side)) -> (
      match find_str id box.links with
      | None -> (fail t (Printf.sprintf "dangling link %s" id), [])
      | Some (fl, k1, k2) -> (
        match find_key k1 box.slots, find_key k2 box.slots with
        | None, _ | _, None -> (fail t "missing link slot", [])
        | Some s1, Some s2 ->
          of_goal_result t
            (fun (o : Flow_link.outcome) ->
              let box = with_slot (with_slot box k1 o.Flow_link.left) k2 o.Flow_link.right in
              let box =
                { box with links = replace_str id (o.Flow_link.goal, k1, k2) box.links }
              in
              route_link_emissions (set_box t box_name box) box_name k1 k2 o.Flow_link.out)
            (Flow_link.on_signal fl ~left:s1 ~right:s2 side signal))))

let deliver t { s_chan; s_tun; to_ } =
  if failed t then None
  else
    match find_chan t s_chan with
    | None -> None
    | Some channel -> (
      match Channel.receive_signal channel ~at_box:to_ ~tunnel:s_tun with
      | None -> None
      | Some (signal, channel) ->
        let t = set_chan t s_chan channel in
        Some (dispatch_signal t to_ { chan = s_chan; tun = s_tun } signal))

let take t { s_chan; s_tun; to_ } =
  if failed t then None
  else
    match find_chan t s_chan with
    | None -> None
    | Some channel -> (
      match Channel.receive_signal channel ~at_box:to_ ~tunnel:s_tun with
      | None -> None
      | Some (signal, channel) -> Some (signal, set_chan t s_chan channel))

let inject t { s_chan; s_tun; to_ } signal =
  if failed t then None
  else Some (dispatch_signal t to_ { chan = s_chan; tun = s_tun } signal)

let run ?(max_steps = 100_000) t =
  let rec loop t steps =
    if failed t then (t, false)
    else if steps >= max_steps then (t, false)
    else
      match first_deliverable t with
      | None -> (t, true)
      | Some send -> (
        match deliver t send with
        | None -> (t, true)
        | Some (t, _) -> loop t (steps + 1))
  in
  loop t 0

let find_link t ~box ~id =
  match find_box t box with None -> None | Some b -> find_str id b.links
