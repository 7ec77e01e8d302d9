(* Session-level probes shared by the fleet and churn workloads: the
   outcome digest, the pass/fail rule for one session, and the timers
   that split a session's run into set-up, protocol-kernel drive and
   analysis from outside the library. *)

open Mediactl_runtime
module Trace = Mediactl_obs.Trace
module Metrics = Mediactl_obs.Metrics
module Monitor = Mediactl_obs.Monitor

let timed f =
  let t0 = Harness.now_ns () in
  let v = f () in
  (v, Harness.secs_since t0)

(* A session fails when the Fig. 5 monitor rejects its trace or its
   temporal obligation is not satisfied; sessions without a judge are
   held to conformance alone. *)
let session_ok (o : Session.outcome) =
  o.Session.conformant
  &&
  match o.Session.verdict with
  | None | Some Monitor.Satisfied -> true
  | Some (Monitor.Violated _ | Monitor.Undetermined _) -> false

(* The per-session digest [Fleet.churn] folds into its fleet digest:
   every observable field of the outcome plus the decoded trace, so
   "the same digest" means the same behaviour event for event. *)
let digest_outcome buf (o : Session.outcome) =
  Buffer.clear buf;
  Buffer.add_string buf (string_of_int o.Session.id);
  Buffer.add_char buf ':';
  Buffer.add_string buf o.Session.scenario;
  Buffer.add_char buf ':';
  Buffer.add_string buf (string_of_int o.Session.events);
  Buffer.add_char buf ':';
  Buffer.add_string buf (Printf.sprintf "%.6f" o.Session.end_time);
  Buffer.add_char buf ':';
  Buffer.add_string buf (if o.Session.conformant then "ok" else "bad");
  Buffer.add_string buf (string_of_int o.Session.violations);
  (match o.Session.verdict with
  | None -> Buffer.add_string buf ":-"
  | Some Monitor.Satisfied -> Buffer.add_string buf ":S"
  | Some (Monitor.Violated m) ->
    Buffer.add_string buf ":V";
    Buffer.add_string buf m
  | Some (Monitor.Undetermined m) ->
    Buffer.add_string buf ":U";
    Buffer.add_string buf m);
  Trace.Packed.iter
    (fun e ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf (Trace.event_to_json e))
    o.Session.trace;
  Digest.string (Buffer.contents buf)

(* XOR-combining keeps a digest independent of the order sessions
   finish in, which is what lets a traced pass that drives sessions
   one by one reproduce the digest of an untraced [Fleet] run. *)
let xor_into acc (d : string) =
  for i = 0 to 15 do
    Bytes.set acc i (Char.chr (Char.code (Bytes.get acc i) lxor Char.code d.[i]))
  done

let digest_of outcomes =
  let acc = Bytes.make 16 '\000' and buf = Buffer.create 4096 in
  List.iter (fun o -> xor_into acc (digest_outcome buf o)) outcomes;
  Bytes.to_string acc

type analysis = { metrics_s : float; monitor_s : float; judge_s : float }

let analysis_s a = a.metrics_s +. a.monitor_s +. a.judge_s

(* Re-time the three analyses [Session] runs on a captured trace. *)
let analyse ~judge trace =
  let _, metrics_s = timed (fun () -> Metrics.of_packed trace) in
  let _, monitor_s = timed (fun () -> Monitor.replay_packed trace) in
  let judge_s =
    match judge with
    | Some f -> snd (timed (fun () -> f trace))
    | None -> 0.0
  in
  { metrics_s; monitor_s; judge_s }

(* The set-up share of a session: a twin built by the same factory
   from an identical stream, run with [~max_events:0] so it builds its
   network and boots but processes no event, less the analysis of the
   twin's own (settle-only) trace. *)
let twin_setup_s twin =
  let o, total = timed (fun () -> Session.run ~max_events:0 twin) in
  Float.max 0.0 (total -. analysis_s (analyse ~judge:(Session.judge twin) o.Session.trace))

(* Map a session's scenario string to its catalog kind. *)
let kind_of_scenario = function
  | "ctv" -> "collab_tv"
  | s -> s

(* Per-kind sums of set-up seconds, kernel seconds, events and
   sessions, turned into the catalog's per-kind rate metrics. *)
type kind_acc = {
  mutable k_sessions : int;
  mutable k_setup_s : float;
  mutable k_kernel_s : float;
  mutable k_events : int;
}

let kind_table () =
  List.map
    (fun k -> (k, { k_sessions = 0; k_setup_s = 0.0; k_kernel_s = 0.0; k_events = 0 }))
    Catalog.kinds

let kind_add tbl (o : Session.outcome) ~setup_s ~kernel_s =
  match List.assoc_opt (kind_of_scenario o.Session.scenario) tbl with
  | Some k ->
    k.k_sessions <- k.k_sessions + 1;
    k.k_setup_s <- k.k_setup_s +. setup_s;
    k.k_kernel_s <- k.k_kernel_s +. kernel_s;
    k.k_events <- k.k_events + o.Session.events
  | None -> ()

let kind_metrics tbl =
  List.concat_map
    (fun (name, k) ->
      if k.k_sessions = 0 then []
      else
        [
          ("session.setups_per_s." ^ name, Harness.per_s k.k_sessions k.k_setup_s);
          ("kernel.events_per_s." ^ name, Harness.per_s k.k_events k.k_kernel_s);
        ])
    tbl

(* The net layer's counters, summed over fleet registries. *)
type net_acc = {
  mutable retrans : int;
  mutable drops : int;
  mutable recvs : int;
  mutable suppressed : int;
}

let net_acc () = { retrans = 0; drops = 0; recvs = 0; suppressed = 0 }

let net_add a (m : Metrics.t) =
  a.retrans <- a.retrans + m.Metrics.retransmissions;
  a.drops <- a.drops + m.Metrics.drops;
  a.recvs <- a.recvs + m.Metrics.recvs;
  a.suppressed <- a.suppressed + m.Metrics.dup_suppressed

let net_metrics a ~sessions =
  let per x = Harness.ratio (float_of_int x) (float_of_int sessions) in
  [
    ("net.retransmissions_per_session", per a.retrans);
    ("net.drops_per_session", per a.drops);
    ( "net.useful_recv_ratio",
      Harness.ratio (float_of_int (a.recvs - a.suppressed)) (float_of_int a.recvs) );
  ]
