open Mediactl_types
open Mediactl_protocol
open Mediactl_signaling
open Mediactl_core

type faults = { losses : int; dups : int; unrestricted : bool }

let no_faults = { losses = 0; dups = 0; unrestricted = false }

type topology =
  | Path of { left : Semantics.end_kind; right : Semantics.end_kind }
  | Star of { parties : Semantics.end_kind list }

type config = {
  topo : topology;
  flowlinks : int;
  chaos : int;
  modifies : int;
  environment_ends : bool;
  faults : faults;
}

let path_config ?(faults = no_faults) ?(environment_ends = false) ~left ~right ~flowlinks ~chaos
    ~modifies () =
  { topo = Path { left; right }; flowlinks; chaos; modifies; environment_ends; faults }

let conf_config ?(faults = no_faults) ?(flowlinks = 1) ~parties ~chaos ~modifies () =
  if List.length parties < 2 then invalid_arg "Path_model.conf_config: need at least 2 parties";
  { topo = Star { parties }; flowlinks; chaos; modifies; environment_ends = false; faults }

(* Each leg pairs an outer (participant) end kind with an inner end
   kind: the configured pair for a path, the party against the mixer's
   holding bridge end for a star. *)
let leg_kinds c =
  match c.topo with
  | Path { left; right } -> [ (left, right) ]
  | Star { parties } -> List.map (fun p -> (p, Semantics.Hold_end)) parties

let leg_count c = match c.topo with Path _ -> 1 | Star { parties } -> List.length parties

let kind_name = function
  | Semantics.Open_end -> "openslot"
  | Semantics.Close_end -> "closeslot"
  | Semantics.Hold_end -> "holdslot"

let config_name c =
  let links = String.concat "" (List.init c.flowlinks (fun _ -> "fl--")) in
  let faults =
    if c.faults = no_faults then ""
    else
      Printf.sprintf " [loss=%d dup=%d%s]" c.faults.losses c.faults.dups
        (if c.faults.unrestricted then " any" else "")
  in
  if c.environment_ends then Printf.sprintf "env--%senv%s" links faults
  else
    match c.topo with
    | Path { left; right } ->
      Printf.sprintf "%s--%s%s%s" (kind_name left) links (kind_name right) faults
    | Star { parties } ->
      Printf.sprintf "conf%d(%s)--%smixer%s" (List.length parties)
        (String.concat "," (List.map kind_name parties))
        links faults

let leg_specs c = List.map (fun (a, b) -> Semantics.spec_of a b) (leg_kinds c)
let spec c = List.hd (leg_specs c)

(* ------------------------------------------------------------------ *)
(* State                                                               *)

type end_phase = Chaos of int | Goal of End_goal.t

type endpoint = {
  phase : end_phase;
  slot : Slot.t;
  local : Local.t;
  kind : Semantics.end_kind;
  modifies_left : int;
  environment : bool;  (* never leaves the chaos phase (segment lemma) *)
}

type link_phase = L_chaos of int | L_goal of Flow_link.t

type link = { lphase : link_phase; lslot : Slot.t; rslot : Slot.t; llocal : Local.t }

(* One signaling leg: an outer (participant) end, interior flowlinks,
   and an inner end — the far party of a path, or the mixer's bridge
   end of a star leg.  Legs never exchange signals with each other, so
   a star's state space is the product of its legs' spaces coupled only
   through the shared fault budgets. *)
type leg = {
  outer : endpoint;
  links : link list;
  tuns : Tunnel.t list;  (* left end of every tunnel is the A (initiator) end *)
  inner : endpoint;
}

type state = {
  legs : leg list;
  err : string option;
  losses_left : int;  (* network-fault budgets (shared across the topology) *)
  dups_left : int;
  unrestricted : bool;  (* fault any signal, not just the idempotent ones *)
}

let error s = s.err

let medium = Medium.Audio

(* Built once, so every state shares the two locals and their addresses:
   the codec recognises a sender address by physical equality first. *)
let local_l = Local.endpoint ~owner:"L" (Address.v "10.0.0.1" 5000) [ Codec.G711; Codec.G726 ]
let local_r = Local.endpoint ~owner:"R" (Address.v "10.0.0.2" 5002) [ Codec.G711; Codec.G726 ]
let endpoint_local which = if which then local_l else local_r

(* Every leg reuses the same owner/address namespace ("L", "R", "FL%d")
   — legal because legs are signal-disjoint, and required so the packed
   codec below stays byte-identical to the two-ended encoding on the
   path topology. *)
let initial_leg c (outer_kind, inner_kind) =
  let outer =
    {
      phase = Chaos c.chaos;
      slot = Slot.create ~label:"L" Slot.Channel_initiator;
      local = endpoint_local true;
      kind = outer_kind;
      modifies_left = c.modifies;
      environment = c.environment_ends;
    }
  in
  let inner =
    {
      phase = Chaos c.chaos;
      slot = Slot.create ~label:"R" Slot.Channel_acceptor;
      local = endpoint_local false;
      kind = inner_kind;
      modifies_left = c.modifies;
      environment = c.environment_ends;
    }
  in
  let links =
    List.init c.flowlinks (fun j ->
        {
          lphase = L_chaos c.chaos;
          lslot = Slot.create ~label:(Printf.sprintf "fl%d.l" j) Slot.Channel_acceptor;
          rslot = Slot.create ~label:(Printf.sprintf "fl%d.r" j) Slot.Channel_initiator;
          llocal = Local.server ~owner:(Printf.sprintf "FL%d" j);
        })
  in
  let tuns = List.init (c.flowlinks + 1) (fun _ -> Tunnel.empty) in
  { outer; links; tuns; inner }

let initial c =
  {
    legs = List.map (initial_leg c) (leg_kinds c);
    err = None;
    losses_left = c.faults.losses;
    dups_left = c.faults.dups;
    unrestricted = c.faults.unrestricted;
  }

(* ------------------------------------------------------------------ *)
(* Predicates                                                          *)

let closed_leg g = Semantics.both_closed ~left:g.outer.slot ~right:g.inner.slot
let flowing_leg g = Semantics.both_flowing ~left:g.outer.slot ~right:g.inner.slot

(* The structural part of [flowing_leg]: both end slots are in the
   flowing state, ignoring descriptor/selector agreement.  Losing a
   status signal cannot perturb this — describes and selects never
   change slot state — but it does leave the peers' media views stale
   until something retransmits, so the agreement refinement is only
   checkable on loss-free models. *)
let ends_flowing_leg g = Slot.is_flowing g.outer.slot && Slot.is_flowing g.inner.slot

let leg_both_closed k s = closed_leg (List.nth s.legs k)
let leg_both_flowing k s = flowing_leg (List.nth s.legs k)
let leg_ends_flowing k s = ends_flowing_leg (List.nth s.legs k)

let settled_end e =
  match e.phase with
  | Chaos _ -> e.environment  (* an environment end never settles *)
  | Goal _ -> true

let settled_link l =
  match l.lphase with
  | L_chaos _ -> false
  | L_goal _ -> true

let settled_leg g =
  settled_end g.outer && settled_end g.inner && List.for_all settled_link g.links

let all_settled s = List.for_all settled_leg s.legs

let clean_slot slot = Slot.is_closed slot || Slot.is_flowing slot

let clean_leg g =
  clean_slot g.outer.slot && clean_slot g.inner.slot
  && List.for_all (fun l -> clean_slot l.lslot && clean_slot l.rslot) g.links

let clean s = List.for_all clean_leg s.legs

(* ------------------------------------------------------------------ *)
(* Labels                                                              *)

type direction = Rightward | Leftward

type which_end = L | R

let mute_code (m : Mute.t) =
  (if m.Mute.mute_in then 1 else 0) lor if m.Mute.mute_out then 2 else 0

let mute_of_code c = { Mute.mute_in = c land 1 <> 0; mute_out = c land 2 <> 0 }

(* The spontaneous sends of a chaotic slot, by the action code a chaos
   label carries. *)
let chaos_name = function
  | 0 -> "open"
  | 1 -> "close"
  | 2 -> "oack"
  | 3 -> "describe"
  | _ -> "select"

(* A label is one immediate int, so the explorer stores an edge's label
   in one word.  Bits 0-2 name the move; bit 3 is set for a leftward
   tunnel, the R end or a flowlink's right side; bits 4-6 carry a chaos
   action code or a mute code; bits 7-22 the tunnel or flowlink index;
   the bits above, the leg the move acts on (a path topology only ever
   produces leg 0).  Every field fits its bits, and no state offers two
   moves with one label, so a label names the move it was made by. *)
type label = int

let equal_label = Int.equal

module Label = struct
  let at k index = (index lsl 7) lor (k lsl 23)
  let dir = function Rightward -> 0 | Leftward -> 8
  let which = function L -> 0 | R -> 8
  let side = function Flow_link.Left -> 0 | Flow_link.Right -> 8
  let deliver k i d = 0 lor dir d lor at k i

  (* the network drops the head signal *)
  let lose k i d = 1 lor dir d lor at k i

  (* the network delivers the head signal twice *)
  let dup k i d = 2 lor dir d lor at k i
  let switch_end k w = 3 lor which w lor at k 0
  let switch_link k j = 4 lor at k j
  let chaos_end k w act = 5 lor which w lor (act lsl 4) lor at k 0
  let chaos_link k j sd act = 6 lor side sd lor (act lsl 4) lor at k j
  let modify k w mute = 7 lor which w lor (mute_code mute lsl 4) lor at k 0
end

(* Leg 0 prints exactly the two-ended labels, so path counterexamples
   read as before; star legs carry a prefix. *)
let pp_label ppf l =
  let k = l lsr 23 and i = (l lsr 7) land 0xffff and arg = (l lsr 4) land 7 in
  let flip = l land 8 <> 0 in
  let arrow = if flip then "<-" else "->" and which = if flip then "R" else "L" in
  if k > 0 then Format.fprintf ppf "leg%d " k;
  match l land 7 with
  | 0 -> Format.fprintf ppf "deliver t%d %s" i arrow
  | 1 -> Format.fprintf ppf "lose t%d %s" i arrow
  | 2 -> Format.fprintf ppf "dup t%d %s" i arrow
  | 3 -> Format.fprintf ppf "switch %s" which
  | 4 -> Format.fprintf ppf "switch fl%d" i
  | 5 -> Format.fprintf ppf "chaos %s %s" which (chaos_name arg)
  | 6 ->
    Format.fprintf ppf "chaos fl%d.%a %s" i Flow_link.pp_side
      (if flip then Flow_link.Right else Flow_link.Left)
      (chaos_name arg)
  | _ -> Format.fprintf ppf "modify %s %a" which Mute.pp (mute_of_code arg)

let pp_state ppf s =
  let pp_slot ppf slot = Slot_state.pp ppf slot.Slot.state in
  let pp_one ppf g =
    Format.fprintf ppf "[%a | %a | %a]" pp_slot g.outer.slot
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
         (fun ppf l -> Format.fprintf ppf "(%a %a)" pp_slot l.lslot pp_slot l.rslot))
      g.links pp_slot g.inner.slot
  in
  Format.fprintf ppf "%a%s"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ") pp_one)
    s.legs
    (match s.err with None -> "" | Some e -> " ERROR:" ^ e)

(* ------------------------------------------------------------------ *)
(* Tunnel plumbing (all tunnels have their A end on the outer side)    *)

let get_leg s k = List.nth s.legs k

(* [l] with [x] at index [i]: copies the cells before [i] and shares the
   tail after it. *)
let rec replace_nth l i x =
  match l with
  | [] -> invalid_arg "Path_model.replace_nth"
  | y :: rest -> if i = 0 then x :: rest else y :: replace_nth rest (i - 1) x

let set_leg s k g = { s with legs = replace_nth s.legs k g }

let set_tun s k i q =
  let g = get_leg s k in
  set_leg s k { g with tuns = replace_nth g.tuns i q }

let send_from_left s k i signal =
  set_tun s k i (Tunnel.send ~from:Tunnel.A signal (List.nth (get_leg s k).tuns i))

let send_from_right s k i signal =
  set_tun s k i (Tunnel.send ~from:Tunnel.B signal (List.nth (get_leg s k).tuns i))

let set_link s k j link =
  let g = get_leg s k in
  set_leg s k { g with links = replace_nth g.links j link }

let route_link_out s k j out =
  List.fold_left
    (fun s (side, signal) ->
      match side with
      | Flow_link.Left -> send_from_right s k j signal
      | Flow_link.Right -> send_from_left s k (j + 1) signal)
    s out

let fail s msg = { s with err = Some msg }

let of_result s f = function
  | Ok x -> f x
  | Error e -> fail s (Goal_error.to_string e)

let of_slot_result s f = function
  | Ok x -> f x
  | Error e -> fail s (Slot.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Endpoint behaviour                                                  *)

let last_tunnel g = List.length g.tuns - 1

let endpoint_emit s k which out =
  match which with
  | L -> List.fold_left (fun s signal -> send_from_left s k 0 signal) s out
  | R ->
    List.fold_left (fun s signal -> send_from_right s k (last_tunnel (get_leg s k)) signal) s out

let get_end s k = function
  | L -> (get_leg s k).outer
  | R -> (get_leg s k).inner

let set_end s k which e =
  let g = get_leg s k in
  match which with
  | L -> set_leg s k { g with outer = e }
  | R -> set_leg s k { g with inner = e }

(* Commit a goal's start or step at end [which] of leg [k], whose
   endpoint record is [e]: the goal it leaves becomes the end's phase,
   and its signals go into the end's tunnel. *)
let step_end s k which e r =
  of_result s
    (fun (o : End_goal.outcome) ->
      endpoint_emit
        (set_end s k which { e with phase = Goal o.End_goal.goal; slot = o.End_goal.slot })
        k which o.End_goal.out)
    r

let endpoint_receive s k which signal =
  let e = get_end s k which in
  match e.phase with
  | Chaos _ ->
    (* In the chaos phase the slot updates but the object does not
       react; protocol-automatic replies (closeack) still go out. *)
    of_slot_result s
      (fun (slot, auto, _notes) ->
        endpoint_emit (set_end s k which { e with slot }) k which auto)
      (Slot.receive e.slot signal)
  | Goal g -> step_end s k which e (End_goal.on_signal g e.slot signal)

let switch_end s k which =
  let e = get_end s k which in
  step_end s k which e (End_goal.engage e.kind e.local medium e.slot)

let modify_end s k which mute =
  let e = get_end s k which in
  match e.phase with
  | Goal g ->
    step_end s k which
      { e with modifies_left = e.modifies_left - 1 }
      (End_goal.modify g e.slot mute)
  | Chaos _ -> s

(* The protocol-legal spontaneous sends available to a chaotic slot,
   each with its [chaos_name] code. *)
let chaos_actions local slot =
  match slot.Slot.state with
  | Slot_state.Closed -> [ (0, fun () -> Slot.send_open slot medium (Local.descriptor local)) ]
  | Slot_state.Opening -> [ (1, fun () -> Slot.send_close slot) ]
  | Slot_state.Opened ->
    [
      (2, fun () -> Slot.send_oack slot (Local.descriptor local));
      (1, fun () -> Slot.send_close slot);
    ]
  | Slot_state.Flowing ->
    let base =
      [
        (3, fun () -> Slot.send_describe slot (Local.descriptor local));
        (1, fun () -> Slot.send_close slot);
      ]
    in
    (match slot.Slot.remote_desc with
    | Some desc -> (4, fun () -> Slot.send_select slot (Local.selector_for local desc)) :: base
    | None -> base)
  | Slot_state.Closing -> []

(* ------------------------------------------------------------------ *)
(* Link behaviour                                                      *)

let link_receive s k j side signal =
  let link = List.nth (get_leg s k).links j in
  match link.lphase with
  | L_chaos _ ->
    let slot = match side with Flow_link.Left -> link.lslot | Flow_link.Right -> link.rslot in
    of_slot_result s
      (fun (slot, auto, _notes) ->
        let link =
          match side with
          | Flow_link.Left -> { link with lslot = slot }
          | Flow_link.Right -> { link with rslot = slot }
        in
        route_link_out (set_link s k j link) k j (List.map (fun sg -> (side, sg)) auto))
      (Slot.receive slot signal)
  | L_goal fl ->
    of_result s
      (fun (o : Flow_link.outcome) ->
        let link =
          { link with lphase = L_goal o.Flow_link.goal; lslot = o.Flow_link.left; rslot = o.Flow_link.right }
        in
        route_link_out (set_link s k j link) k j o.Flow_link.out)
      (Flow_link.on_signal fl ~left:link.lslot ~right:link.rslot side signal)

let switch_link s k j =
  let link = List.nth (get_leg s k).links j in
  of_result s
    (fun (o : Flow_link.outcome) ->
      let link =
        { link with lphase = L_goal o.Flow_link.goal; lslot = o.Flow_link.left; rslot = o.Flow_link.right }
      in
      route_link_out (set_link s k j link) k j o.Flow_link.out)
    (Flow_link.start link.lslot link.rslot)

(* ------------------------------------------------------------------ *)
(* Delivery                                                            *)

(* With [consume = false] the head signal is dispatched but left in the
   tunnel, modeling a duplicate delivery: the same signal will be
   delivered again by a later [Deliver]. *)
let deliver ?(consume = true) s k i direction =
  let g = get_leg s k in
  let n_links = List.length g.links in
  match direction with
  | Rightward -> (
    match Tunnel.receive ~at:Tunnel.B (List.nth g.tuns i) with
    | None -> None
    | Some (signal, q) ->
      let s = if consume then set_tun s k i q else s in
      if i = n_links then Some (endpoint_receive s k R signal)
      else Some (link_receive s k i Flow_link.Left signal))
  | Leftward -> (
    match Tunnel.receive ~at:Tunnel.A (List.nth g.tuns i) with
    | None -> None
    | Some (signal, q) ->
      let s = if consume then set_tun s k i q else s in
      if i = 0 then Some (endpoint_receive s k L signal)
      else Some (link_receive s k (i - 1) Flow_link.Right signal))

(* The network silently drops the head signal.  Nothing retransmits at
   this level of abstraction, so by default only the idempotent
   absolute-state signals may be dropped — the class the paper argues a
   peer can afford to miss, because any later describe/select carries
   the complete current state.  Dropping a handshake signal models a
   deployment without the reliability layer, and reachably desynchronises
   the slot state machines (see [unrestricted]). *)
let lose s k i direction =
  let at = match direction with Rightward -> Tunnel.B | Leftward -> Tunnel.A in
  match Tunnel.receive ~at (List.nth (get_leg s k).tuns i) with
  | None -> None
  | Some (_signal, q) -> Some (set_tun s k i q)

(* The signals whose duplicate delivery the paper argues is harmless
   (section VI): describes and selects carry absolute state, so applying
   one twice is idempotent.  The handshake signals are not in this
   class — the reliability layer deduplicates them by sequence number. *)
let idempotent = function
  | Signal.Describe _ | Signal.Select _ -> true
  | Signal.Open _ | Signal.Oack _ | Signal.Close | Signal.Closeack -> false

let head_toward s k i direction =
  let at = match direction with Rightward -> Tunnel.B | Leftward -> Tunnel.A in
  Tunnel.peek ~at (List.nth (get_leg s k).tuns i)

(* ------------------------------------------------------------------ *)
(* Successor relation                                                  *)

let mute_choices = [ Mute.none; Mute.both; Mute.in_only; Mute.out_only ]

(* Every delivery, then every network fault, then each leg's end and
   link moves, in leg and position order.  Moves are consed newest first
   onto one list, reversed once at the end. *)
let successors s =
  match s.err with
  | Some _ -> []
  | None ->
    let moves = ref [] in
    let add label s' = moves := (label, s') :: !moves in
    let add_delivery k i direction =
      match deliver s k i direction with
      | Some s' -> add (Label.deliver k i direction) s'
      | None -> ()
    in
    List.iteri
      (fun k g ->
        List.iteri
          (fun i q ->
            if Tunnel.has_pending ~toward:Tunnel.B q then add_delivery k i Rightward;
            if Tunnel.has_pending ~toward:Tunnel.A q then add_delivery k i Leftward)
          g.tuns)
      s.legs;
    let add_faults k i direction =
      match head_toward s k i direction with
      | None -> ()
      | Some head ->
        if s.unrestricted || idempotent head then begin
          (if s.losses_left > 0 then
             match lose s k i direction with
             | Some s' -> add (Label.lose k i direction) { s' with losses_left = s.losses_left - 1 }
             | None -> ());
          if s.dups_left > 0 then
            match deliver ~consume:false s k i direction with
            | Some s' -> add (Label.dup k i direction) { s' with dups_left = s.dups_left - 1 }
            | None -> ()
        end
    in
    if s.losses_left > 0 || s.dups_left > 0 then
      List.iteri
        (fun k g ->
          List.iteri
            (fun i _ ->
              add_faults k i Rightward;
              add_faults k i Leftward)
            g.tuns)
        s.legs;
    let end_moves k which =
      let e = get_end s k which in
      match e.phase with
      | Chaos budget ->
        if not e.environment then add (Label.switch_end k which) (switch_end s k which);
        if budget > 0 then
          List.iter
            (fun (act_code, act) ->
              add
                (Label.chaos_end k which act_code)
                (of_slot_result s
                   (fun (slot, signal) ->
                     let e' = { e with phase = Chaos (budget - 1); slot } in
                     endpoint_emit (set_end s k which e') k which [ signal ])
                   (act ())))
            (chaos_actions e.local e.slot)
      | Goal g ->
        (* A closeslot has no media face to modify. *)
        if e.modifies_left > 0 && End_goal.kind g <> Semantics.Close_end then
          List.iter
            (fun mute ->
              if not (Mute.equal mute e.local.Local.mute) then
                add (Label.modify k which mute) (modify_end s k which mute))
            mute_choices
    in
    let link_chaos k j link budget side slot =
      List.iter
        (fun (act_code, act) ->
          add
            (Label.chaos_link k j side act_code)
            (of_slot_result s
               (fun (slot', signal) ->
                 let link' =
                   let link = { link with lphase = L_chaos (budget - 1) } in
                   match side with
                   | Flow_link.Left -> { link with lslot = slot' }
                   | Flow_link.Right -> { link with rslot = slot' }
                 in
                 route_link_out (set_link s k j link') k j [ (side, signal) ])
               (act ())))
        (chaos_actions link.llocal slot)
    in
    let link_moves k j link =
      match link.lphase with
      | L_chaos budget ->
        add (Label.switch_link k j) (switch_link s k j);
        if budget > 0 then begin
          link_chaos k j link budget Flow_link.Left link.lslot;
          link_chaos k j link budget Flow_link.Right link.rslot
        end
      | L_goal _ -> ()
    in
    List.iteri
      (fun k g ->
        end_moves k L;
        end_moves k R;
        List.iteri (link_moves k) g.links)
      s.legs;
    List.rev !moves

(* ------------------------------------------------------------------ *)
(* Packed state codec                                                  *)

(* [pack] encodes a state as a compact byte string, injectively over the
   states of any one configuration; [unpack] inverts it given that
   configuration.  Everything derivable from the configuration — slot
   labels and roles, the endpoints' media faces, the flowlink locals,
   the [unrestricted] flag — is omitted.  The codec exists so the
   explorer can intern states under short keys instead of [Marshal]
   blobs; see {!Mediactl_mc.Explorer.SYSTEM}.

   Legs are packed in order, each as (outer, links, tunnels, inner), so
   a path topology — exactly one leg — produces byte-for-byte the same
   encoding as the historical two-ended codec, keeping E10 baselines
   valid.  Because every leg reuses the same owner/address namespace,
   the per-leg codec needs no leg-qualified codes.

   Provenance facts the encoding relies on (exercised by the qcheck
   round-trip property in the test suite):
   - every descriptor in flight or cached is [Local.descriptor] of a
     per-position local, so it is determined by its owner, its version,
     and whether it offers media;
   - every selector is [Local.selector_for] of one of those locals, so
     its sender address is one of three known addresses;
   - an endpoint's [local] field never changes — only the goal object's
     embedded copy accumulates mute/version updates. *)

(* The writer: one byte scratch per domain, reused by every [pack] on
   that domain.  [pack] runs once per transition, so it writes its bytes
   in place and allocates nothing but the key it returns, which
   [Bytes.sub_string] copies out: under [jobs > 1] a chunk's keys wait
   until the calling domain interns them, and the intern table keeps
   them, so a key must never alias the scratch.  Domain-local storage
   keeps the reuse safe under parallel exploration. *)
type writer = { mutable bytes : Bytes.t; mutable len : int }

let scratch = Domain.DLS.new_key (fun () -> { bytes = Bytes.create 256; len = 0 })

(* Room for [n] more bytes, doubling the scratch when it is short. *)
let reserve w n =
  if w.len + n > Bytes.length w.bytes then begin
    let bytes =
      (Bytes.create (Int.max (2 * Bytes.length w.bytes) (w.len + n))
      [@lint.allow
        "alloc: scratch growth, at most a few doublings per domain over a whole exploration; \
         the steady state writes into the grown scratch"])
    in
    Bytes.blit w.bytes 0 bytes 0 w.len;
    w.bytes <- bytes
  end

(* One byte per field, keeping [Char.chr]'s contract in a single test:
   a budget, a version, a queue length or a flowlink index outside
   0-255 raises [Invalid_argument "Char.chr"], so an outgrown codec
   fails loudly instead of colliding.  The capacity check keeps every
   store inside the scratch.  Inlined, since it runs once per key byte. *)
let[@inline] byte w n =
  if n lsr 8 <> 0 then invalid_arg "Char.chr";
  let len = w.len in
  if len >= Bytes.length w.bytes then reserve w 1;
  Bytes.unsafe_set w.bytes len (Char.unsafe_chr n);
  w.len <- len + 1

let put_string w str =
  let n = String.length str in
  reserve w n;
  Bytes.blit_string str 0 w.bytes w.len n;
  w.len <- w.len + n

let addr_l = local_l.Local.addr
let addr_r = local_r.Local.addr
let addr_srv = (Local.server ~owner:"FL0").Local.addr

let unknown_owner owner = invalid_arg ("Path_model.pack: unknown owner " ^ owner)

(* The decimal flowlink index of an ["FL<j>"] owner, read in place. *)
let rec owner_digits owner i j =
  if i = String.length owner then j
  else
    match owner.[i] with
    | '0' .. '9' as c when j < 256 -> owner_digits owner (i + 1) ((j * 10) + Char.code c - 48)
    | _ -> unknown_owner owner

let owner_code owner =
  match owner with
  | "L" -> 0
  | "R" -> 1
  | _ ->
    if String.length owner > 2 && owner.[0] = 'F' && owner.[1] = 'L' then
      2 + owner_digits owner 2 0
    else unknown_owner owner

let addr_code a =
  if a == addr_l then 0
  else if a == addr_r then 1
  else if a == addr_srv then 2
  else if Address.equal a addr_l then 0
  else if Address.equal a addr_r then 1
  else if Address.equal a addr_srv then 2
  else invalid_arg "Path_model.pack: unknown sender address"

let addr_of_code = function
  | 0 -> addr_l
  | 1 -> addr_r
  | _ -> addr_srv

let medium_code = function
  | Medium.Audio -> 0
  | Medium.Video -> 1
  | Medium.Text -> 2
  | Medium.Audio_video -> 3

let medium_of_code = function
  | 0 -> Medium.Audio
  | 1 -> Medium.Video
  | 2 -> Medium.Text
  | _ -> Medium.Audio_video

(* A codec's position in [Codec.all], which [codec_of_code] inverts. *)
let codec_code = function
  | Codec.G711 -> 0
  | Codec.G726 -> 1
  | Codec.G729 -> 2
  | Codec.Ilbc -> 3
  | Codec.L16 -> 4
  | Codec.Amr_wb -> 5
  | Codec.H261 -> 6
  | Codec.H263 -> 7
  | Codec.H264 -> 8
  | Codec.Mpeg4 -> 9
  | Codec.T140 -> 10
  | Codec.Rtt -> 11

let codec_of_code i = List.nth Codec.all i

let put_desc w (d : Descriptor.t) =
  let media = match d.Descriptor.offer with Descriptor.No_media -> 0 | Descriptor.Media _ -> 1 in
  byte w ((owner_code d.Descriptor.owner * 2) lor media);
  byte w d.Descriptor.version

let put_sel w (s : Selector.t) =
  let r_owner, r_version = s.Selector.responds_to in
  byte w (addr_code s.Selector.sender);
  byte w (owner_code r_owner);
  byte w r_version;
  byte w
    (match s.Selector.choice with
    | Selector.No_media -> 0
    | Selector.Chosen c -> 1 + codec_code c)

(* A reader carries what decoding needs of the configuration, built
   once when [unpack] is applied to it: the base local of each owner
   code (L, R, then each flowlink's server) and each flowlink's slot
   labels. *)
type reader = {
  buf : string;
  mutable pos : int;
  locals : Local.t array;
  link_labels : (string * string) array;
}

let rd r =
  let c = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  c

let get_desc r =
  let tag = rd r in
  let version = rd r in
  let base = r.locals.(tag lsr 1) in
  if tag land 1 = 1 then
    Descriptor.make ~owner:base.Local.owner ~version base.Local.addr base.Local.codecs
  else Descriptor.no_media ~owner:base.Local.owner ~version base.Local.addr

let get_sel r =
  let sender = addr_of_code (rd r) in
  let r_owner = r.locals.(rd r).Local.owner in
  let r_version = rd r in
  let choice =
    match rd r with
    | 0 -> Selector.No_media
    | n -> Selector.Chosen (codec_of_code (n - 1))
  in
  Selector.make ~responds_to:(r_owner, r_version) ~sender choice

let put_signal w = function
  | Signal.Open (m, d) ->
    byte w 0;
    byte w (medium_code m);
    put_desc w d
  | Signal.Oack d ->
    byte w 1;
    put_desc w d
  | Signal.Close -> byte w 2
  | Signal.Closeack -> byte w 3
  | Signal.Describe d ->
    byte w 4;
    put_desc w d
  | Signal.Select s ->
    byte w 5;
    put_sel w s

let get_signal r =
  match rd r with
  | 0 ->
    let m = medium_of_code (rd r) in
    Signal.Open (m, get_desc r)
  | 1 -> Signal.Oack (get_desc r)
  | 2 -> Signal.Close
  | 3 -> Signal.Closeack
  | 4 -> Signal.Describe (get_desc r)
  | _ -> Signal.Select (get_sel r)

let slot_state_code = function
  | Slot_state.Closed -> 0
  | Slot_state.Opening -> 1
  | Slot_state.Opened -> 2
  | Slot_state.Flowing -> 3
  | Slot_state.Closing -> 4

let slot_state_of_code = function
  | 0 -> Slot_state.Closed
  | 1 -> Slot_state.Opening
  | 2 -> Slot_state.Opened
  | 3 -> Slot_state.Flowing
  | _ -> Slot_state.Closing

let put_opt w put = function
  | None -> ()
  | Some x -> put w x

let rec put_list w put = function
  | [] -> ()
  | x :: rest ->
    put w x;
    put_list w put rest

let presence i = function None -> 0 | Some _ -> 1 lsl i

let put_slot w (slot : Slot.t) =
  byte w
    (slot_state_code slot.Slot.state
    lor match slot.Slot.medium with None -> 0 | Some m -> (1 + medium_code m) lsl 3);
  byte w
    (presence 0 slot.Slot.remote_desc
    lor presence 1 slot.Slot.sent_desc
    lor presence 2 slot.Slot.recv_sel
    lor presence 3 slot.Slot.sent_sel);
  put_opt w put_desc slot.Slot.remote_desc;
  put_opt w put_desc slot.Slot.sent_desc;
  put_opt w put_sel slot.Slot.recv_sel;
  put_opt w put_sel slot.Slot.sent_sel

let get_slot r ~label ~role =
  let tag = rd r in
  let state = slot_state_of_code (tag land 7) in
  let medium = match tag lsr 3 with 0 -> None | m -> Some (medium_of_code (m - 1)) in
  let mask = rd r in
  let remote_desc = if mask land 1 <> 0 then Some (get_desc r) else None in
  let sent_desc = if mask land 2 <> 0 then Some (get_desc r) else None in
  let recv_sel = if mask land 4 <> 0 then Some (get_sel r) else None in
  let sent_sel = if mask land 8 <> 0 then Some (get_sel r) else None in
  { Slot.label; role; state; medium; remote_desc; sent_desc; recv_sel; sent_sel }

(* A goal object's local differs from the position's base local only in
   its mute flags and version. *)
let put_goal_local w (l : Local.t) =
  byte w (mute_code l.Local.mute);
  byte w l.Local.version

let get_goal_local r base =
  let mute = mute_of_code (rd r) in
  let version = rd r in
  { base with Local.mute; version }

let put_phase w = function
  | Chaos n ->
    byte w 0;
    byte w n
  | Goal (End_goal.Open { local; want }) ->
    byte w 1;
    byte w (medium_code want);
    put_goal_local w local
  | Goal End_goal.Close -> byte w 2
  | Goal (End_goal.Hold { local }) ->
    byte w 3;
    put_goal_local w local

let get_phase r base =
  match rd r with
  | 0 -> Chaos (rd r)
  | 1 ->
    let want = medium_of_code (rd r) in
    Goal (End_goal.Open { local = get_goal_local r base; want })
  | 2 -> Goal End_goal.Close
  | _ -> Goal (End_goal.Hold { local = get_goal_local r base })

let put_endpoint w e =
  put_phase w e.phase;
  byte w e.modifies_left;
  put_slot w e.slot

let get_endpoint r ~kind ~environment which =
  let base = endpoint_local (which = L) in
  let phase = get_phase r base in
  let modifies_left = rd r in
  let label, role =
    match which with
    | L -> ("L", Slot.Channel_initiator)
    | R -> ("R", Slot.Channel_acceptor)
  in
  let slot = get_slot r ~label ~role in
  { phase; slot; local = base; kind; modifies_left; environment }

let put_side_view w (v : Flow_link.side_view) =
  byte w
    ((if v.Flow_link.v_utd then 1 else 0)
    lor (if v.Flow_link.v_close_pending then 2 else 0)
    lor match v.Flow_link.v_pending_sel with None -> 0 | Some _ -> 4);
  match v.Flow_link.v_pending_sel with None -> () | Some s -> put_sel w s

let get_side_view r =
  let tag = rd r in
  let v_pending_sel = if tag land 4 <> 0 then Some (get_sel r) else None in
  { Flow_link.v_utd = tag land 1 <> 0; v_close_pending = tag land 2 <> 0; v_pending_sel }

let put_link w l =
  (match l.lphase with
  | L_chaos n ->
    byte w 0;
    byte w n
  | L_goal fl ->
    byte w (if Flow_link.filters_selectors fl then 1 else 2);
    put_side_view w (Flow_link.view fl Flow_link.Left);
    put_side_view w (Flow_link.view fl Flow_link.Right));
  put_slot w l.lslot;
  put_slot w l.rslot

let get_link r j =
  let lphase =
    match rd r with
    | 0 -> L_chaos (rd r)
    | tag ->
      let left = get_side_view r in
      let right = get_side_view r in
      L_goal (Flow_link.of_views ~filter_selectors:(tag = 1) ~left ~right ())
  in
  let l_label, r_label = r.link_labels.(j) in
  let lslot = get_slot r ~label:l_label ~role:Slot.Channel_acceptor in
  let rslot = get_slot r ~label:r_label ~role:Slot.Channel_initiator in
  { lphase; lslot; rslot; llocal = r.locals.(2 + j) }

(* A queue is written from its packed words, decoded here on the
   writing domain, where they are canonical. *)
let put_word w word = put_signal w (Signal_pack.unpack word)

let put_queue w words =
  byte w (List.length words);
  put_list w put_word words

let put_tunnel w q =
  put_queue w (Tunnel.queue_toward ~toward:Tunnel.B q);
  put_queue w (Tunnel.queue_toward ~toward:Tunnel.A q)

let get_tunnel r =
  let get_dir from q =
    let n = rd r in
    let rec go q i =
      if i = 0 then q
      else
        let s = get_signal r in
        go (Tunnel.send ~from s q) (i - 1)
    in
    go q n
  in
  let q = get_dir Tunnel.A Tunnel.empty in
  get_dir Tunnel.B q

let put_leg w g =
  put_endpoint w g.outer;
  put_list w put_link g.links;
  put_list w put_tunnel g.tuns;
  put_endpoint w g.inner

let pack s =
  let w = Domain.DLS.get scratch in
  w.len <- 0;
  put_list w put_leg s.legs;
  (match s.err with
  | None -> byte w 0
  | Some msg ->
    byte w 1;
    let n = String.length msg in
    byte w (n land 0xff);
    byte w (n lsr 8);
    put_string w msg);
  byte w s.losses_left;
  byte w s.dups_left;
  (Bytes.sub_string w.bytes 0 w.len
  [@lint.allow "alloc: the key itself, the one block pack exists to return"])
[@@lint.hotpath]

(* Explicit recursion rather than [List.init]: the reads must happen in
   position order, and [List.init] does not specify one. *)
let rec read_list j n f =
  if j = n then []
  else
    let x = f j in
    x :: read_list (j + 1) n f

(* Everything derived from the configuration is built once, when
   [unpack] is applied to it; the returned decoder shares these
   immutable values across calls and domains. *)
let unpack (c : config) =
  let kinds = Array.of_list (leg_kinds c) in
  let locals =
    Array.init (2 + c.flowlinks) (function
      | 0 -> endpoint_local true
      | 1 -> endpoint_local false
      | code -> Local.server ~owner:(Printf.sprintf "FL%d" (code - 2)))
  in
  let link_labels =
    Array.init c.flowlinks (fun j -> (Printf.sprintf "fl%d.l" j, Printf.sprintf "fl%d.r" j))
  in
  fun str ->
    let r = { buf = str; pos = 0; locals; link_labels } in
    let legs =
      read_list 0 (Array.length kinds) (fun k ->
          let outer_kind, inner_kind = kinds.(k) in
          let outer = get_endpoint r ~kind:outer_kind ~environment:c.environment_ends L in
          let links = read_list 0 c.flowlinks (fun j -> get_link r j) in
          let tuns = read_list 0 (c.flowlinks + 1) (fun _ -> get_tunnel r) in
          let inner = get_endpoint r ~kind:inner_kind ~environment:c.environment_ends R in
          { outer; links; tuns; inner })
    in
    let err =
      match rd r with
      | 0 -> None
      | _ ->
        let lo = rd r in
        let hi = rd r in
        let n = lo lor (hi lsl 8) in
        let msg = String.sub r.buf r.pos n in
        r.pos <- r.pos + n;
        Some msg
    in
    let losses_left = rd r in
    let dups_left = rd r in
    { legs; err; losses_left; dups_left; unrestricted = c.faults.unrestricted }

let equal_state (a : state) (b : state) = a = b

let standard_configs ?(faults = no_faults) ~chaos ~modifies () =
  let kinds = [ Semantics.Open_end; Semantics.Close_end; Semantics.Hold_end ] in
  let pairs =
    (* Six unordered pairs. *)
    List.concat_map
      (fun a -> List.filter_map (fun b -> if compare a b <= 0 then Some (a, b) else None) kinds)
      kinds
  in
  List.concat_map
    (fun flowlinks ->
      List.map
        (fun (left, right) ->
          path_config ~faults ~left ~right ~flowlinks ~chaos ~modifies ())
        pairs)
    [ 0; 1 ]
