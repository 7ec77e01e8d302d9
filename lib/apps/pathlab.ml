open Mediactl_types
open Mediactl_core
open Mediactl_runtime

let audio = [ Codec.G711; Codec.G726 ]
let local_l = Local.endpoint ~owner:"L" (Address.v "10.3.0.1" 5000) audio
let local_r = Local.endpoint ~owner:"R" (Address.v "10.3.0.2" 5000) audio

(* Channel i connects node i to node i+1, where node 0 = L and node
   flowlinks+1 = R, matching the model checker's path layout (the left
   end of every channel is its initiator). *)
let chan_name i = Printf.sprintf "ch%d" i
let link_box j = Printf.sprintf "FL%d" j

let node_name ~flowlinks i =
  if i = 0 then "L" else if i = flowlinks + 1 then "R" else link_box (i - 1)

(* Boxes, channels, and flowlink bindings, ends still unbound.  Binding
   a flowlink over closed slots emits nothing, so a [topology] network
   is signal-free: a timed driver created over it sees every signal of
   the run, because they all flow through [Timed.apply]/reactions. *)
let topology ?(flowlinks = 0) () =
  if flowlinks < 0 then invalid_arg "Pathlab.topology: negative flowlinks";
  let net =
    List.fold_left Netsys.add_box Netsys.empty
      (("L" :: List.init flowlinks link_box) @ [ "R" ])
  in
  let net =
    List.fold_left
      (fun net i ->
        Netsys.connect net ~chan:(chan_name i)
          ~initiator:(node_name ~flowlinks i)
          ~acceptor:(node_name ~flowlinks (i + 1))
          ())
      net
      (List.init (flowlinks + 1) Fun.id)
  in
  List.fold_left
    (fun net j ->
      fst
        (Netsys.bind_link net ~box:(link_box j) ~id:"fl"
           { Netsys.chan = chan_name j; tun = 0 }
           { Netsys.chan = chan_name (j + 1); tun = 0 }))
    net
    (List.init flowlinks Fun.id)

let left_slot = Netsys.slot_ref ~box:"L" ~chan:(chan_name 0) ()
let right_slot ~flowlinks = Netsys.slot_ref ~box:"R" ~chan:(chan_name flowlinks) ()

let engage kind r local net =
  match kind with
  | Semantics.Open_end -> Netsys.bind_open net r local Medium.Audio
  | Semantics.Close_end -> Netsys.bind_close net r
  | Semantics.Hold_end -> Netsys.bind_hold net r local

let engage_left kind net = engage kind left_slot local_l net
let engage_right kind ~flowlinks net = engage kind (right_slot ~flowlinks) local_r net

let build ?(left = Semantics.Open_end) ?(right = Semantics.Open_end) ?(flowlinks = 0) () =
  let net = topology ~flowlinks () in
  let net = fst (engage_left left net) in
  fst (engage_right right ~flowlinks net)

(* The end identities in the coordinates trace events use. *)
let ends ~flowlinks =
  { Mediactl_obs.Monitor.left = ("L", chan_name 0, 0); right = ("R", chan_name flowlinks, 0) }

let end_slots net ~flowlinks =
  match Netsys.slot net left_slot, Netsys.slot net (right_slot ~flowlinks) with
  | Some l, Some r -> Some (l, r)
  | (Some _ | None), _ -> None

let both_flowing ~flowlinks net =
  match end_slots net ~flowlinks with
  | Some (l, r) -> Semantics.both_flowing ~left:l ~right:r
  | None -> false

let both_closed ~flowlinks net =
  match end_slots net ~flowlinks with
  | Some (l, r) -> Semantics.both_closed ~left:l ~right:r
  | None -> false
