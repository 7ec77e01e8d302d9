(* mediactl_sim: run named scenarios under the timed simulator.

   Examples:
     mediactl_sim prepaid
     mediactl_sim fig13 --n 34 --c 20
     mediactl_sim fig13 --loss 0.05 --seed 7 --trace out.jsonl --metrics out.json
     mediactl_sim relink --boxes 5 --at 3 --loss 0.1
     mediactl_sim path --left openslot --right openslot --flowlinks 1 --verify
     mediactl_sim sip --seed 42
*)

open Cmdliner
open Mediactl_runtime
open Mediactl_apps
module Obs = Mediactl_obs

(* With --loss > 0, run over the impaired network with the reliability
   layer attached; report what the network and the layer did. *)
let impaired ~seed ~loss sim =
  if loss <= 0.0 then None
  else begin
    let impair = Mediactl_net.Impair.create ~seed ~default:(Mediactl_net.Policy.lossy loss) () in
    Some (impair, Mediactl_net.Reliable.attach impair sim)
  end

(* The [attach] of the Figure-13 and relink drivers: stamp the trace
   with the driver's clock, then put the impaired network under it. *)
let traced_impaired ~seed ~loss net_layer sim =
  Timed.observe sim;
  net_layer := impaired ~seed ~loss sim

let report_impairment = function
  | None -> ()
  | Some (impair, rel) ->
    Format.printf "network:     %a@." Mediactl_net.Impair.pp_counters
      (Mediactl_net.Impair.total impair);
    Format.printf "reliability: %a@." Mediactl_net.Reliable.pp_counters
      (Mediactl_net.Reliable.counters rel)

let print_edges prefix edges =
  Format.printf "%-28s %s@." prefix
    (if edges = [] then "(silence)"
     else String.concat ", " (List.map (fun (a, b) -> a ^ "->" ^ b) edges))

let settle net = fst (Netsys.run net)

let run_prepaid () =
  let net = settle (Prepaid.build ()) in
  print_edges "initial:" (Prepaid.flows net);
  let net = settle (fst (Prepaid.snapshot1 net)) in
  print_edges "snapshot 1:" (Prepaid.flows net);
  let net = settle (fst (Prepaid.snapshot2 net)) in
  print_edges "snapshot 2:" (Prepaid.flows net);
  let net = settle (fst (Prepaid.snapshot3 net)) in
  print_edges "snapshot 3:" (Prepaid.flows net);
  let net, _ = Prepaid.snapshot4_pc net in
  let net, _ = Prepaid.snapshot4_pbx net in
  print_edges "snapshot 4:" (Prepaid.flows (settle net));
  0

(* Always recorded: the chart is the receives of the timed run, so the
   bracket is drained once the untimed settles are done.  Returns the
   whole trace, settles included. *)
let run_fig13 seed n c loss =
  let settled, timed =
    Obs.Trace.recording_packed (fun () ->
        let net = Prepaid.fig13_start () in
        let settled = Obs.Trace.drain () in
        let net_layer = ref None in
        let attach = traced_impaired ~seed ~loss net_layer in
        let a_tx, c_tx = Prepaid.fig13 ~n ~c ~attach net in
        Format.printf "A transmits toward C at %.1f ms; C toward A at %.1f ms (2n+3c = %.1f)@.@."
          a_tx c_tx
          ((2.0 *. n) +. (3.0 *. c));
        report_impairment !net_layer;
        settled)
  in
  Format.printf "message-sequence chart:@.%a" Obs.Trace.pp_msc timed;
  Obs.Trace.Packed.append settled timed

let run_relink seed n c boxes j loss =
  let net_layer = ref None in
  let done_at =
    Relink.measure ~n ~c ~attach:(traced_impaired ~seed ~loss net_layer) ~j
      (Relink.build ~boxes ~j)
  in
  let p = Relink.hops ~boxes ~j in
  Format.printf "boxes=%d j=%d p=%d: measured %.1f ms, formula p*n+(p+1)*c = %.1f ms%s@." boxes j
    p done_at (Relink.formula ~p ~n ~c)
    (if loss > 0.0 then " (loss-free)" else "");
  report_impairment !net_layer;
  0

let run_sip seed n c =
  let show name o = Format.printf "%-18s %a@." name Mediactl_sip.Scenario.pp_outcome o in
  show "common case:" (Mediactl_sip.Scenario.fig14_common ~seed ~n ~c ());
  show "race (fig 14):" (Mediactl_sip.Scenario.fig14_race ~seed ~n ~c ());
  show "glare on modify:" (Mediactl_sip.Scenario.glare_modify ~seed ~n ~c ());
  Format.printf "formulas: common 7n+7c = %.0f; race 10n+11c+d(3s) = %.0f; ours 2n+3c = %.0f@."
    (Mediactl_sip.Scenario.common_formula ~n ~c)
    (Mediactl_sip.Scenario.race_formula ~n ~c ~d:3000.0)
    ((2.0 *. n) +. (3.0 *. c));
  0

(* The live counterpart of a model-checker path configuration: engage
   both end goals under the timed driver and let the handshake play
   out.  Bounded by sim time because some configurations never settle
   (an openslot facing a closeslot reopens forever). *)
let run_path seed n c loss left right flowlinks =
  let sim = Timed.create ~n ~c (Pathlab.topology ~flowlinks ()) in
  Timed.observe sim;
  let net_layer = impaired ~seed ~loss sim in
  let flowing_at = ref nan in
  Timed.when_true sim (Pathlab.both_flowing ~flowlinks) (fun t -> flowing_at := t);
  Timed.apply sim (Pathlab.engage_left left);
  Timed.apply sim (Pathlab.engage_right right ~flowlinks);
  let _ = Timed.run ~until:30_000.0 sim in
  let state r =
    match Netsys.slot (Timed.net sim) r with
    | Some slot -> Format.asprintf "%a" Mediactl_protocol.Slot.pp slot
    | None -> "?"
  in
  let kind_name = function
    | Mediactl_core.Semantics.Open_end -> "openslot"
    | Mediactl_core.Semantics.Close_end -> "closeslot"
    | Mediactl_core.Semantics.Hold_end -> "holdslot"
  in
  Format.printf "%s--%s%s: L=%s R=%s%s@." (kind_name left)
    (String.concat "" (List.init flowlinks (fun _ -> "fl--")))
    (kind_name right)
    (state Pathlab.left_slot)
    (state (Pathlab.right_slot ~flowlinks))
    (if Float.is_nan !flowing_at then ""
     else Format.asprintf ", bothFlowing at %.1f ms" !flowing_at);
  (match Timed.error sim with
  | Some e -> Format.printf "runtime error: %s@." e
  | None -> ());
  report_impairment net_layer;
  0

(* A fleet or churn run fails when any session is non-conformant or
   any judged obligation is violated or undetermined. *)
let exit_code ~sessions ~conformant ~violated ~undetermined =
  if conformant = sessions && violated = 0 && undetermined = 0 then 0 else 1

(* The sharded many-session runtime: N independent sessions split from
   one seed, partitioned across K domains.  Fleet sessions record their
   own traces (domain-locally), so this path must not be wrapped in the
   outer [Trace.recording_packed] the single-scenario runs use.  The
   printed digest is independent of the job count. *)
let run_fleet seed n c loss sessions jobs kind parties =
  let mk ~id ~rng = Scenario.session ~n ~c ~loss ~parties kind ~id ~rng in
  let outcomes, summary = Fleet.run ~jobs ~until:60_000.0 ~sessions ~seed mk in
  Format.printf "%a@.digest      %s@." Fleet.pp_summary summary (Fleet.digest outcomes);
  let failed (o : Session.outcome) =
    (not o.Session.conformant)
    || match o.Session.verdict with Some Obs.Monitor.Satisfied | None -> false | Some _ -> true
  in
  List.iter (fun o -> Format.printf "  %a@." Session.pp_outcome o) (List.filter failed outcomes);
  exit_code ~sessions ~conformant:summary.Fleet.conformant ~violated:summary.Fleet.violated
    ~undetermined:summary.Fleet.undetermined

(* Steady-state churn: hold --target-population resident sessions under
   Poisson arrival / exponential-holding turnover for --duration
   simulated ms.  The printed digest is the job-count-independent
   fleet digest CI smoke-compares across runs. *)
let run_churn seed n c loss jobs kind parties target duration mean_holding arrival_rate =
  let mk ~id ~rng = Scenario.churn_session ~n ~c ~loss ~parties kind ~id ~rng in
  let summary =
    Fleet.churn ~jobs ?arrival_rate ~target_population:target ~mean_holding ~duration ~seed
      mk
  in
  Format.printf "%a@." Fleet.pp_churn_summary summary;
  exit_code ~sessions:summary.Fleet.c_retired ~conformant:summary.Fleet.c_conformant
    ~violated:summary.Fleet.c_violated ~undetermined:summary.Fleet.c_undetermined

(* --------------------------------------------------------------- *)
(* Trace capture around a scenario run                              *)

let verify_trace scenario ~loss ~left ~right ~flowlinks trace =
  let monitor = Obs.Monitor.run_packed trace in
  let report = Obs.Monitor.report monitor in
  Format.printf "monitor: %d event(s), %d tunnel(s), %s@." (Obs.Trace.Packed.length trace)
    (List.length report.Obs.Monitor.tunnels)
    (if Obs.Monitor.conformant report then "conformant"
     else Printf.sprintf "%d VIOLATION(S)" (List.length report.Obs.Monitor.violations));
  List.iter (Format.printf "  %s@.") report.Obs.Monitor.violations;
  let obligation_ok =
    match scenario with
    | `Path ->
      (* Under loss nothing re-describes after a retry exhausts, so
         check the structural form — the one the model checker itself
         uses when exploring with fault budgets. *)
      let structural = loss > 0.0 in
      let obligation = Mediactl_core.Semantics.spec_of left right in
      let v =
        Obs.Monitor.judge
          { Obs.Monitor.structural; obligation; legs = [ Pathlab.ends ~flowlinks ] }
          monitor
      in
      Format.printf "obligation %s%s: %a@."
        (Mediactl_core.Semantics.spec_to_string obligation)
        (if structural then " (structural)" else "")
        Obs.Monitor.pp_verdict v;
      (match v with Obs.Monitor.Violated _ -> false | _ -> true)
    | _ -> true
  in
  if Obs.Monitor.conformant report && obligation_ok then 0 else 1

let run scenario n c boxes j seed loss left right flowlinks trace metrics verify sessions
    jobs fleet_scenario parties churn target_population duration mean_holding arrival_rate
    =
  let export code packed =
    (match trace with
    | Some path ->
      let b = Buffer.create 4096 in
      Obs.Trace.Packed.add_jsonl b packed;
      Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc b);
      Format.printf "trace: %d event(s) -> %s@." (Obs.Trace.Packed.length packed) path
    | None -> ());
    (match metrics with
    | Some path ->
      let m = Obs.Metrics.of_packed packed in
      Obs.Metrics.write_json path m;
      Format.printf "metrics -> %s@.%a@." path Obs.Metrics.pp m
    | None -> ());
    let vcode =
      if verify then verify_trace scenario ~loss ~left ~right ~flowlinks packed else 0
    in
    if code <> 0 then code else vcode
  in
  match scenario with
  | `Fleet ->
    if churn then
      run_churn seed n c loss jobs fleet_scenario parties target_population duration
        mean_holding arrival_rate
    else run_fleet seed n c loss sessions jobs fleet_scenario parties
  | `Fig13 -> export 0 (run_fig13 seed n c loss)
  | (`Prepaid | `Relink | `Sip | `Path) as scenario ->
    let go () =
      match scenario with
      | `Prepaid -> run_prepaid ()
      | `Relink -> run_relink seed n c boxes j loss
      | `Sip -> run_sip seed n c
      | `Path -> run_path seed n c loss left right flowlinks
    in
    if trace = None && metrics = None && not verify then go ()
    else
      let code, packed = Obs.Trace.recording_packed go in
      export code packed

let scenario =
  Arg.(required & pos 0 (some (enum [ ("prepaid", `Prepaid); ("fig13", `Fig13); ("relink", `Relink); ("sip", `Sip); ("path", `Path); ("fleet", `Fleet) ])) None
       & info [] ~docv:"SCENARIO" ~doc:"One of: prepaid, fig13, relink, sip, path, fleet.")

let n_arg = Arg.(value & opt float 34.0 & info [ "n" ] ~doc:"Network latency (ms).")
let c_arg = Arg.(value & opt float 20.0 & info [ "c" ] ~doc:"Box compute time (ms).")
let boxes_arg = Arg.(value & opt int 4 & info [ "boxes" ] ~doc:"Interior boxes (relink).")
let j_arg = Arg.(value & opt int 2 & info [ "at" ] ~doc:"Relinking box index (relink).")
let seed_arg =
  Arg.(value & opt int 11 & info [ "seed" ]
       ~doc:"Random seed; equal seeds give identical runs (sip, and fig13/relink/path with --loss).")

let loss_arg =
  Arg.(value & opt float 0.0 & info [ "loss" ] ~docv:"P"
       ~doc:"Per-frame loss probability in [0,1]; > 0 runs fig13/relink/path over the                impaired network with the reliability layer attached.")

let end_kind =
  Arg.enum
    [
      ("openslot", Mediactl_core.Semantics.Open_end);
      ("closeslot", Mediactl_core.Semantics.Close_end);
      ("holdslot", Mediactl_core.Semantics.Hold_end);
    ]

let left_arg =
  Arg.(value & opt end_kind Mediactl_core.Semantics.Open_end
       & info [ "left" ] ~doc:"Left end goal (path): openslot, closeslot, or holdslot.")

let right_arg =
  Arg.(value & opt end_kind Mediactl_core.Semantics.Open_end
       & info [ "right" ] ~doc:"Right end goal (path): openslot, closeslot, or holdslot.")

let flowlinks_arg =
  Arg.(value & opt int 0 & info [ "flowlinks" ] ~doc:"Interior flowlink boxes (path).")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
       ~doc:"Capture a structured event trace of the run and write it as JSON lines.")

let metrics_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
       ~doc:"Aggregate per-run metrics from the captured trace and write them as JSON.")

let sessions_arg =
  Arg.(value & opt int 32 & info [ "sessions" ] ~doc:"Session count (fleet).")

let jobs_arg =
  Arg.(value & opt int 1 & info [ "jobs" ]
       ~doc:"Domains to shard the fleet across; per-session results are identical               for every value.")

let fleet_scenario =
  let kind_conv =
    Arg.conv
      ( (fun s ->
          match Scenario.of_string s with
          | Some k -> Ok k
          | None -> Error (`Msg (Printf.sprintf "unknown fleet scenario %S" s))),
        fun ppf k -> Format.pp_print_string ppf (Scenario.to_string k) )
  in
  Arg.(value & opt kind_conv Scenario.Mixed
       & info [ "scenario" ] ~docv:"KIND"
           ~doc:"What each fleet session runs: path, ctd, conf, prepaid, ctv,               transfer, barge, moh, or mixed.")

let parties_arg =
  Arg.(value & opt int 3 & info [ "parties" ]
       ~doc:"Conference roster size (fleet --scenario conf).")

let churn_arg =
  Arg.(value & flag & info [ "churn" ]
       ~doc:"Run the fleet as a steady-state churn workload (Poisson arrivals,               exponential holding times) instead of a fixed batch; see               --target-population, --duration, --mean-holding, --arrival-rate.")

let target_population_arg =
  Arg.(value & opt int 1000 & info [ "target-population" ]
       ~doc:"Resident sessions the churn workload holds in steady state (fleet --churn).")

let duration_arg =
  Arg.(value & opt float 10_000.0 & info [ "duration" ] ~docv:"MS"
       ~doc:"Churn horizon in simulated milliseconds (fleet --churn).")

let mean_holding_arg =
  Arg.(value & opt float 4_000.0 & info [ "mean-holding" ] ~docv:"MS"
       ~doc:"Mean exponential session holding time in simulated ms (fleet --churn).")

let arrival_rate_arg =
  Arg.(value & opt (some float) None & info [ "arrival-rate" ] ~docv:"PER_MS"
       ~doc:"Poisson arrival rate in sessions per simulated ms (fleet --churn);               defaults to target-population / mean-holding, the steady-state balance.")

let verify_arg =
  Arg.(value & flag & info [ "verify" ]
       ~doc:"Replay the captured trace through the Fig. 5 conformance monitor; for the               path scenario also evaluate the configuration's temporal obligation.               Exits nonzero on a violation.")

let cmd =
  let doc = "run compositional media-control scenarios under the timed simulator" in
  Cmd.v
    (Cmd.info "mediactl_sim" ~doc)
    Term.(const run $ scenario $ n_arg $ c_arg $ boxes_arg $ j_arg $ seed_arg $ loss_arg
          $ left_arg $ right_arg $ flowlinks_arg $ trace_arg $ metrics_arg $ verify_arg
          $ sessions_arg $ jobs_arg $ fleet_scenario $ parties_arg $ churn_arg
          $ target_population_arg $ duration_arg $ mean_holding_arg $ arrival_rate_arg)

let () = exit (Cmd.eval' cmd)
