(* The paper's running example (Figures 2, 3, and 13): a prepaid-card
   server and an IP PBX manipulate the same media channels concurrently.

   The demo first replays Figure 2 — what happens when the servers are
   NOT coordinated — then Figure 3 with the compositional primitives,
   and finally the Figure-13 concurrent relink with its 2n+3c latency.

   Run with: dune exec examples/prepaid_card.exe *)

open Mediactl_apps
open Mediactl_runtime
module Trace = Mediactl_obs.Trace

let print_edges prefix edges =
  Format.printf "%s %s@." prefix
    (if edges = [] then "(silence)"
     else String.concat ", " (List.map (fun (a, b) -> a ^ "->" ^ b) edges))

let settle net = fst (Netsys.run net)

let () =
  Format.printf "== Figure 2: uncoordinated servers ==@.";
  let m = Naive.initial () in
  print_edges "snapshot 1:" (Naive.flows m);
  let m = Naive.snapshot m 2 in
  print_edges "snapshot 2:" (Naive.flows m);
  let m = Naive.snapshot m 3 in
  print_edges "snapshot 3:" (Naive.flows m);
  let m = Naive.snapshot m 4 in
  print_edges "snapshot 4:" (Naive.flows m);
  Format.printf "anomalies:@.";
  List.iter (fun a -> Format.printf "  - %s@." a) (Naive.anomalies m);

  Format.printf "@.== Figure 3: compositional media control ==@.";
  let net = settle (Prepaid.build ()) in
  print_edges "initial (A-B call):  " (Prepaid.flows net);
  let net = settle (fst (Prepaid.snapshot1 net)) in
  print_edges "snapshot 1 (A takes C):" (Prepaid.flows net);
  let net = settle (fst (Prepaid.snapshot2 net)) in
  print_edges "snapshot 2 (funds out):" (Prepaid.flows net);
  let net = settle (fst (Prepaid.snapshot3 net)) in
  print_edges "snapshot 3 (A back to B):" (Prepaid.flows net);
  let net4, _ = Prepaid.snapshot4_pc net in
  let net4, _ = Prepaid.snapshot4_pbx net4 in
  let net4 = settle net4 in
  print_edges "snapshot 4 (reconnected):" (Prepaid.flows net4);
  Format.printf "no anomalies: C-V stayed two-way in snapshot 3, B stayed silent.@.";

  Format.printf "@.== Figure 13: concurrent relink latency ==@.";
  let n = 34.0 and c = 20.0 in
  (* Record the timed run; the chart is drawn from its receive entries. *)
  let (a_tx, c_tx), trace =
    Trace.recording_packed (fun () -> Prepaid.fig13 ~n ~c ~attach:Timed.observe net)
  in
  Format.printf "PC and the PBX change state at t=0 (n=%.0f ms, c=%.0f ms)@." n c;
  Format.printf "A can transmit toward C at t=%.0f ms@." a_tx;
  Format.printf "C can transmit toward A at t=%.0f ms@." c_tx;
  Format.printf "paper's analysis: 2n + 3c = %.0f ms@.@." ((2.0 *. n) +. (3.0 *. c));
  Format.printf "message-sequence chart (compare with the paper's Figure 13):@.";
  Format.printf "%a" Trace.pp_msc trace
