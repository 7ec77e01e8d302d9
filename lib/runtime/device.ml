open Mediactl_types

type behavior = Answers | Busy | No_answer

let react timed ~box local behavior =
  let net = Timed.net timed in
  List.iter
    (fun (key, _) ->
      let r = { Netsys.box; key } in
      match Netsys.binding net r with
      | Some Netsys.Unbound -> (
        Timed.send_meta timed ~chan:key.Netsys.chan ~from:box
          (match behavior with
          | Answers | No_answer -> Meta.Available
          | Busy -> Meta.Unavailable);
        match behavior with
        | Answers -> Timed.apply timed (fun net -> Netsys.bind_hold net r local)
        | Busy -> Timed.apply timed (fun net -> Netsys.bind_close net r)
        | No_answer ->
          (* Mark the slot as owned-but-ringing by binding nothing; the
             passive slot semantics keep the protocol consistent. *)
          ())
      | Some (Netsys.End_b _ | Netsys.Link_b _) | None -> ())
    (Netsys.slots_of_box net box)

let install timed ~box local behavior =
  (* React to channels that already exist and to any created later. *)
  let seen = ref [] in
  let scan _ =
    let keys = List.map fst (Netsys.slots_of_box (Timed.net timed) box) in
    let fresh = List.filter (fun k -> not (List.mem k !seen)) keys in
    if fresh <> [] then begin
      seen := keys;
      react timed ~box local behavior
    end
  in
  Timed.on_step timed scan;
  scan timed

let hang_up timed ~box ~chan = Timed.send_meta timed ~chan ~from:box Meta.Teardown
