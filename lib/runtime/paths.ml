open Mediactl_core

type endpoint = { ref_ : Netsys.slot_ref; kind : Semantics.end_kind option }

type t = { left : endpoint; right : endpoint; tunnels : int }

let kind_of_binding = function
  | Netsys.End_b g -> Some (End_goal.kind g)
  | Netsys.Link_b _ | Netsys.Unbound -> None

let is_path_end = function Netsys.Link_b _ -> false | Netsys.End_b _ | Netsys.Unbound -> true

(* The slot at the far end of the same tunnel. *)
let across net (r : Netsys.slot_ref) =
  Option.map
    (fun box -> { Netsys.box; key = r.Netsys.key })
    (Netsys.peer_of_chan net ~chan:r.Netsys.key.Netsys.chan ~box:r.Netsys.box)

(* The other slot of the flowlink this slot belongs to, if any. *)
let through_link net (r : Netsys.slot_ref) =
  match Netsys.binding net r with
  | Some (Netsys.Link_b (id, side)) ->
    Option.map
      (fun (_, k1, k2) ->
        let key = match side with Mediactl_core.Flow_link.Left -> k2 | Flow_link.Right -> k1 in
        { Netsys.box = r.Netsys.box; key })
      (Netsys.find_link net ~box:r.Netsys.box ~id)
  | Some (Netsys.End_b _ | Netsys.Unbound) | None -> None

let endpoint net r = { ref_ = r; kind = Option.bind (Netsys.binding net r) kind_of_binding }

(* Walk rightward from an end slot: tunnel, then flowlink, then tunnel
   ... until a slot with no flowlink. *)
let walk net start =
  let rec go r tunnels =
    match across net r with
    | None -> None
    | Some peer -> (
      match through_link net peer with
      | None -> Some (peer, tunnels + 1)
      | Some continued -> go continued (tunnels + 1))
  in
  go start 0

let all_end_slots net =
  List.concat_map
    (fun box ->
      List.filter_map
        (fun (key, _) ->
          let r = { Netsys.box; key } in
          match Netsys.binding net r with
          | Some b when is_path_end b -> Some r
          | Some _ | None -> None)
        (Netsys.slots_of_box net box))
    (Netsys.boxes net)

let all net =
  let ends = all_end_slots net in
  List.filter_map
    (fun start ->
      match walk net start with
      | None -> None
      | Some (finish, tunnels) ->
        (* Report each path once, from its lexicographically smaller
           end. *)
        if compare start finish <= 0 then
          Some { left = endpoint net start; right = endpoint net finish; tunnels }
        else None)
    ends

let find net ~a ~b =
  List.find_opt
    (fun p ->
      (p.left.ref_.Netsys.box = a && p.right.ref_.Netsys.box = b)
      || (p.left.ref_.Netsys.box = b && p.right.ref_.Netsys.box = a))
    (all net)

let spec p =
  match p.left.kind, p.right.kind with
  | Some a, Some b -> Some (Semantics.spec_of a b)
  | (Some _ | None), _ -> None

let flow net p =
  match Netsys.slot net p.left.ref_, Netsys.slot net p.right.ref_ with
  | Some sl, Some sr ->
    Some
      (Mediactl_media.Flow.between ~a:p.left.ref_.Netsys.box sl ~b:p.right.ref_.Netsys.box sr)
  | (Some _ | None), _ -> None

let flows net = List.filter_map (flow net) (all net)

let transmits_toward r owner net =
  match Netsys.slot net r with
  | Some slot -> (
    Mediactl_protocol.Slot.tx_enabled slot
    &&
    match slot.Mediactl_protocol.Slot.remote_desc with
    | Some d -> String.equal (fst (Mediactl_types.Descriptor.id d)) owner
    | None -> false)
  | None -> false

let pp ppf p =
  let kind ppf = function
    | Some k -> Semantics.pp_end_kind ppf k
    | None -> Format.pp_print_string ppf "unbound"
  in
  Format.fprintf ppf "%s(%a) ~%d~ %s(%a)" p.left.ref_.Netsys.box kind p.left.kind p.tunnels
    p.right.ref_.Netsys.box kind p.right.kind
