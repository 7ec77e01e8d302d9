open Mediactl_types
open Mediactl_core
open Mediactl_runtime

let audio = [ Codec.G711; Codec.G726 ]

let local_l = Local.endpoint ~owner:"L" (Address.v "10.2.0.1" 5000) audio
let local_r = Local.endpoint ~owner:"R" (Address.v "10.2.0.2" 5000) audio

let box_name i = Printf.sprintf "B%d" i

(* Channel i connects node i to node i+1, where node 0 = L and node
   boxes+1 = R. *)
let chan_name i = Printf.sprintf "ch%d" i

let node_name ~boxes i = if i = 0 then "L" else if i = boxes + 1 then "R" else box_name i

let build ~boxes ~j =
  if boxes < 1 || j < 1 || j > boxes then invalid_arg "Relink.build: need 1 <= j <= boxes";
  let net =
    List.fold_left Netsys.add_box Netsys.empty
      ("L" :: "R" :: List.init boxes (fun i -> box_name (i + 1)))
  in
  let net =
    List.fold_left
      (fun net i ->
        Netsys.connect net ~chan:(chan_name i) ~initiator:(node_name ~boxes i)
          ~acceptor:(node_name ~boxes (i + 1)) ())
      net
      (List.init (boxes + 1) Fun.id)
  in
  (* Interior boxes: flowlinks everywhere except at Bj, which holds both
     sides so that each half of the path terminates there. *)
  let net =
    List.fold_left
      (fun net i ->
        let left_key = { Netsys.chan = chan_name (i - 1); tun = 0 } in
        let right_key = { Netsys.chan = chan_name i; tun = 0 } in
        if i = j then
          let hold key =
            fun net ->
              Netsys.bind_hold net
                { Netsys.box = box_name i; key }
                (Local.server ~owner:(Printf.sprintf "B%d.%s" i key.Netsys.chan))
          in
          let net, _ = hold left_key net in
          fst (hold right_key net)
        else fst (Netsys.bind_link net ~box:(box_name i) ~id:"fl" left_key right_key))
      net
      (List.init boxes (fun i -> i + 1))
  in
  (* Both endpoints push toward flowing, so both halves are live. *)
  let net, _ =
    Netsys.bind_open net (Netsys.slot_ref ~box:"L" ~chan:(chan_name 0) ()) local_l Medium.Audio
  in
  let net, _ =
    Netsys.bind_open net
      (Netsys.slot_ref ~box:"R" ~chan:(chan_name boxes) ())
      local_r Medium.Audio
  in
  fst (Netsys.run net)

let relink ~j net =
  Netsys.bind_link net ~box:(box_name j) ~id:"fl"
    { Netsys.chan = chan_name (j - 1); tun = 0 }
    { Netsys.chan = chan_name j; tun = 0 }

let measure ~n ~c ?(attach = ignore) ~j net =
  let left = Netsys.slot_ref ~box:"L" ~chan:(chan_name 0) () in
  (* R sits on the last of the path's channels. *)
  let right =
    Netsys.slot_ref ~box:"R" ~chan:(chan_name (List.length (Netsys.channels net) - 1)) ()
  in
  let sim = Timed.create ~n ~c net in
  attach sim;
  let done_at = ref nan in
  Timed.when_true sim
    (fun net -> Paths.transmits_toward left "R" net && Paths.transmits_toward right "L" net)
    (fun t -> done_at := t);
  Timed.apply sim (relink ~j);
  ignore (Timed.run sim);
  !done_at

let hops ~boxes ~j = max j (boxes + 1 - j)

let formula ~p ~n ~c = (float_of_int p *. n) +. (float_of_int (p + 1) *. c)
