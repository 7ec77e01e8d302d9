(* Quickstart: two media endpoints, one application server, one flowlink.

   Alice's phone opens an audio channel toward Bob's phone.  The
   signaling path runs through a server box that flowlinks its two
   slots; media packets would flow directly between the phones.  The
   example then puts Bob on hold (the server swaps the flowlink for two
   holdslots), takes him off hold, and shows Alice muting her microphone.

   Run with: dune exec examples/quickstart.exe *)

open Mediactl_types
open Mediactl_core
open Mediactl_runtime

let show label net =
  let edges = Mediactl_media.Flow.edges (Paths.flows net) in
  Format.printf "%-24s %s@." label
    (if edges = [] then "(silence)"
     else String.concat ", " (List.map (fun (a, b) -> a ^ " -> " ^ b) edges))

let settle net =
  match Netsys.run net with
  | net, true -> net
  | _, false -> failwith "network did not quiesce"

let demo () =
  Format.printf "== quickstart: alice -- server -- bob ==@.";
  (* Topology: two signaling channels meeting at the server. *)
  let net = List.fold_left Netsys.add_box Netsys.empty [ "alice"; "server"; "bob" ] in
  let net = Netsys.connect net ~chan:"a" ~initiator:"alice" ~acceptor:"server" () in
  let net = Netsys.connect net ~chan:"b" ~initiator:"server" ~acceptor:"bob" () in

  (* Endpoint media faces: address, receivable codecs. *)
  let alice = Local.endpoint ~owner:"alice" (Address.v "192.168.0.10" 5004) [ Codec.G711; Codec.G726 ] in
  let bob = Local.endpoint ~owner:"bob" (Address.v "192.168.0.20" 5004) [ Codec.G711 ] in

  (* Bob will accept calls; the server links its two slots; Alice opens. *)
  let net, _ = Netsys.bind_hold net (Netsys.slot_ref ~box:"bob" ~chan:"b" ()) bob in
  let net, _ =
    Netsys.bind_link net ~box:"server" ~id:"call" { Netsys.chan = "a"; tun = 0 }
      { Netsys.chan = "b"; tun = 0 }
  in
  let net, _ =
    Netsys.bind_open net (Netsys.slot_ref ~box:"alice" ~chan:"a" ()) alice Medium.Audio
  in
  let net = settle net in
  show "call established:" net;

  (* The negotiated codec is the best both sides can use. *)
  (match Paths.flows net with
  | flow :: _ ->
    List.iter
      (fun (s, r, codec) -> Format.printf "  %s sends to %s using %a@." s r Codec.pp codec)
      (Mediactl_media.Flow.directed flow)
  | [] -> ());

  (* Hold: the server swaps the flowlink for two (muting) holdslots. *)
  let hold = Local.server ~owner:"server.hold" in
  let net, _ = Netsys.bind_hold net (Netsys.slot_ref ~box:"server" ~chan:"a" ()) hold in
  let net, _ = Netsys.bind_hold net (Netsys.slot_ref ~box:"server" ~chan:"b" ()) hold in
  let net = settle net in
  show "bob on hold:" net;

  (* Resume: relink. *)
  let net, _ =
    Netsys.bind_link net ~box:"server" ~id:"call" { Netsys.chan = "a"; tun = 0 }
      { Netsys.chan = "b"; tun = 0 }
  in
  let net = settle net in
  show "resumed:" net;

  (* Alice mutes her microphone (a modify event, paper Figure 5). *)
  let net, _ = Netsys.modify net (Netsys.slot_ref ~box:"alice" ~chan:"a" ()) Mute.out_only in
  let net = settle net in
  show "alice muted:" net;

  let net, _ = Netsys.modify net (Netsys.slot_ref ~box:"alice" ~chan:"a" ()) Mute.none in
  let net = settle net in
  show "alice unmuted:" net;

  (* The signaling path and its formal specification. *)
  List.iter
    (fun p ->
      Format.printf "path: %a  spec: %s@." Paths.pp p
        (match Paths.spec p with
        | Some spec -> Semantics.spec_to_string spec
        | None -> "(unbound end)"))
    (Paths.all net)

(* The whole demo runs inside a trace recording; afterwards the
   captured signal history is replayed through the Fig. 5 conformance
   monitor — runtime verification of the very run that printed above. *)
let () =
  let (), trace = Mediactl_obs.Trace.recording_packed demo in
  let report = Mediactl_obs.Monitor.replay_packed trace in
  Format.printf "@.observability: %d trace events over %d tunnel(s): %s@."
    (Mediactl_obs.Trace.Packed.length trace)
    (List.length report.Mediactl_obs.Monitor.tunnels)
    (if Mediactl_obs.Monitor.conformant report then "Fig. 5 conformant"
     else "PROTOCOL VIOLATIONS")
