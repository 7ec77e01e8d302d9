open Mediactl_types
open Mediactl_core
open Mediactl_runtime

type op = Netsys.t -> Netsys.t * Netsys.send list

let seq ops net =
  List.fold_left
    (fun (net, sends) op ->
      let net, more = op net in
      (net, sends @ more))
    (net, []) ops

let audio = [ Codec.G711; Codec.G726 ]

let local_a = Local.endpoint ~owner:"A" (Address.v "10.0.0.1" 5000) audio
let local_b = Local.endpoint ~owner:"B" (Address.v "10.0.0.2" 5000) audio
let local_c = Local.endpoint ~owner:"C" (Address.v "10.0.0.3" 5000) audio
let local_v = Local.endpoint ~owner:"V" (Address.v "10.0.0.4" 5000) audio

let a_slot = Netsys.slot_ref ~box:"A" ~chan:"a" ()
let b_slot = Netsys.slot_ref ~box:"B" ~chan:"b" ()
let c_slot = Netsys.slot_ref ~box:"C" ~chan:"c" ()
let v_slot = Netsys.slot_ref ~box:"V" ~chan:"v" ()
let pbx_a = Netsys.slot_ref ~box:"PBX" ~chan:"a" ()
let pbx_b = Netsys.slot_ref ~box:"PBX" ~chan:"b" ()
let pbx_pc = Netsys.slot_ref ~box:"PBX" ~chan:"pc" ()
let pc_pbx = Netsys.slot_ref ~box:"PC" ~chan:"pc" ()
let pc_c = Netsys.slot_ref ~box:"PC" ~chan:"c" ()
let pc_v = Netsys.slot_ref ~box:"PC" ~chan:"v" ()

let key (r : Netsys.slot_ref) = r.Netsys.key

let build () =
  let net = Netsys.empty in
  let net = List.fold_left Netsys.add_box net [ "A"; "B"; "C"; "V"; "PBX"; "PC" ] in
  let net = Netsys.connect net ~chan:"a" ~initiator:"A" ~acceptor:"PBX" () in
  let net = Netsys.connect net ~chan:"b" ~initiator:"PBX" ~acceptor:"B" () in
  let net = Netsys.connect net ~chan:"pc" ~initiator:"PC" ~acceptor:"PBX" () in
  let net = Netsys.connect net ~chan:"c" ~initiator:"C" ~acceptor:"PC" () in
  let net = Netsys.connect net ~chan:"v" ~initiator:"PC" ~acceptor:"V" () in
  (* Endpoint goals that never change during the scenario. *)
  let net, _ = Netsys.bind_hold net b_slot local_b in
  let net, _ = Netsys.bind_hold net v_slot local_v in
  (* The original A—B call. *)
  let net, _ = Netsys.bind_link net ~box:"PBX" ~id:"pbx" (key pbx_a) (key pbx_b) in
  let net, _ = Netsys.bind_open net a_slot local_a Medium.Audio in
  (* PC is ready to route C toward A and has its IVR resource idle. *)
  let net, _ = Netsys.bind_link net ~box:"PC" ~id:"pc" (key pc_c) (key pc_pbx) in
  let net, _ = Netsys.bind_hold net pc_v (Local.server ~owner:"PC.v") in
  (* A answers through its own endpoint; A's side of the PBX slot pc is
     unbound until snapshot 1 relinks, but signals can arrive there
     earlier (C dialling), so park it under a holdslot meanwhile. *)
  let net, _ = Netsys.bind_hold net pbx_pc (Local.server ~owner:"PBX.pc") in
  net

let snapshot1 =
  seq
    [
      (fun net -> Netsys.bind_open net c_slot local_c Medium.Audio);
      (fun net -> Netsys.bind_link net ~box:"PBX" ~id:"pbx" (key pbx_a) (key pbx_pc));
      (fun net -> Netsys.bind_hold net pbx_b (Local.server ~owner:"PBX.b"));
    ]

let snapshot2 =
  seq
    [
      (fun net -> Netsys.bind_link net ~box:"PC" ~id:"pc" (key pc_c) (key pc_v));
      (fun net -> Netsys.bind_hold net pc_pbx (Local.server ~owner:"PC.pbx"));
    ]

let snapshot3 =
  seq
    [
      (fun net -> Netsys.bind_link net ~box:"PBX" ~id:"pbx" (key pbx_a) (key pbx_b));
      (fun net -> Netsys.bind_hold net pbx_pc (Local.server ~owner:"PBX.pc"));
    ]

let snapshot4_pc =
  seq
    [
      (fun net -> Netsys.bind_link net ~box:"PC" ~id:"pc" (key pc_c) (key pc_pbx));
      (fun net -> Netsys.bind_hold net pc_v (Local.server ~owner:"PC.v"));
    ]

let snapshot4_pbx =
  seq
    [
      (fun net -> Netsys.bind_link net ~box:"PBX" ~id:"pbx" (key pbx_a) (key pbx_pc));
      (fun net -> Netsys.bind_hold net pbx_b (Local.server ~owner:"PBX.b"));
    ]

let fig13_start () =
  let settle net = fst (Netsys.run net) in
  let net = settle (build ()) in
  let net = settle (fst (snapshot1 net)) in
  let net = settle (fst (snapshot2 net)) in
  settle (fst (snapshot3 net))

let fig13 ~n ~c ?(attach = ignore) net =
  let sim = Timed.create ~n ~c net in
  attach sim;
  let a_tx = ref nan and c_tx = ref nan in
  Timed.when_true sim (Paths.transmits_toward a_slot "C") (fun t -> a_tx := t);
  Timed.when_true sim (Paths.transmits_toward c_slot "A") (fun t -> c_tx := t);
  Timed.apply sim snapshot4_pc;
  Timed.apply sim snapshot4_pbx;
  ignore (Timed.run sim);
  (!a_tx, !c_tx)

let expected_flows = function
  | 0 -> [ ("A", "B"); ("B", "A") ]
  | 1 -> [ ("A", "C"); ("C", "A") ]
  | 2 -> [ ("C", "V"); ("V", "C") ]
  | 3 -> [ ("A", "B"); ("B", "A"); ("C", "V"); ("V", "C") ]
  | 4 -> [ ("A", "C"); ("C", "A") ]
  | n -> invalid_arg (Printf.sprintf "Prepaid.expected_flows: no snapshot %d" n)

let flows net = Mediactl_media.Flow.edges (Paths.flows net)
