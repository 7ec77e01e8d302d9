open Mediactl_types

type packet = { seq : int; sent_at : float; codec : Codec.t }

let generate ~start ~stop ~interval codec =
  if interval <= 0.0 then invalid_arg "Rtp.generate: interval must be positive";
  let rec loop seq at acc =
    if at > stop then List.rev acc
    else loop (seq + 1) (at +. interval) ({ seq; sent_at = at; codec } :: acc)
  in
  loop 0 start []

type account = { delivered : int; clipped : int }

let account packets ~transit ~ready_at =
  List.fold_left
    (fun acc p ->
      if p.sent_at +. transit >= ready_at then { acc with delivered = acc.delivered + 1 }
      else { acc with clipped = acc.clipped + 1 })
    { delivered = 0; clipped = 0 }
    packets
