open Mediactl_sim
open Mediactl_obs

type outcome = {
  id : int;
  scenario : string;
  events : int;
  end_time : float;
  trace : Trace.Packed.t;
  metrics : Metrics.t;
  conformant : bool;
  violations : int;
  verdict : Monitor.verdict option;
}

(* The network build is deferred into [run] so that every signal of the
   session — including the untimed settle a scenario may perform while
   assembling its starting state — is emitted inside the session's own
   recording, where the conformance monitor can see the handshakes from
   the beginning. *)
type t = {
  s_id : int;
  s_scenario : string;
  s_rng : Rng.t;
  s_n : float;
  s_c : float;
  s_make : unit -> Netsys.t;
  s_boot : t -> unit;
  s_hangup : (t -> unit) option;
  s_judge : Monitor.judgement option;
  mutable s_sim : Timed.t option;
}

let create ?(n = 34.0) ?(c = 20.0) ?hangup ?judge ~id ~scenario ~rng ~boot make =
  (* A draw nothing reads.  It stays because every later draw on the
     session stream — and so every committed fleet and churn digest —
     is positioned after it. *)
  ignore (Rng.fork_seed rng);
  {
    s_id = id;
    s_scenario = scenario;
    s_rng = rng;
    s_n = n;
    s_c = c;
    s_make = make;
    s_boot = boot;
    s_hangup = hangup;
    s_judge = judge;
    s_sim = None;
  }

let id t = t.s_id
let scenario t = t.s_scenario
let rng t = t.s_rng

let sim t =
  match t.s_sim with
  | Some sim -> sim
  | None -> invalid_arg "Session.sim: session not running (only valid from boot onward)"

let judge t = Option.map (fun j p -> Monitor.judge j (Monitor.run_packed p)) t.s_judge

(* The wall-clock path: the caller owns the engine (and therefore the
   loop), so the session only assembles its network, wraps it in the
   driver the caller builds, and runs its boot closure against it.
   Trace recording, monitoring, and judging stay with the caller — a
   live daemon records one long trace for many concurrent calls, not
   one recording per session. *)
let boot_external t ~make_driver =
  (match t.s_sim with
  | Some _ -> invalid_arg "Session.boot_external: session already running"
  | None -> ());
  let sim = make_driver (t.s_make ()) in
  t.s_sim <- Some sim;
  t.s_boot t;
  sim

(* One run of the Fig. 5 machines per session: the report, the metrics
   and the verdict are all read off it. *)
let analyze t ~events ~end_time trace =
  let machines = Monitor.run_packed trace in
  let report = Monitor.report machines in
  {
    id = t.s_id;
    scenario = t.s_scenario;
    events;
    end_time;
    trace;
    metrics = Metrics.of_packed_report report trace;
    conformant = Monitor.conformant report;
    violations = List.length report.Monitor.violations;
    verdict = Option.map (fun j -> Monitor.judge j machines) t.s_judge;
  }

(* ------------------------------------------------------------------ *)
(* Phased lifecycle (churn)

   A churned session lives as a {e resident} between two recording
   brackets on the same domain: [launch] builds, boots, and drives it
   to quiescence, capturing the setup segment; the session then sits
   dormant — no scheduled work, so it emits nothing while other
   sessions record — until [retire] opens the second bracket, runs the
   hangup closure (if any), drives the teardown to quiescence, and
   joins the two segments with {!Trace.Packed.append} before deriving
   metrics and verdicts exactly as {!run} does.  The dormancy invariant
   is what makes two brackets lossless: between them the session's
   engine queue is empty, so there is nothing to record. *)

let launch ?until ?max_events t =
  (match t.s_sim with
  | Some _ -> invalid_arg "Session.launch: session already running"
  | None -> ());
  Trace.recording_packed (fun () ->
    let sim = Timed.create ~n:t.s_n ~c:t.s_c (t.s_make ()) in
    t.s_sim <- Some sim;
    Timed.observe sim;
    t.s_boot t;
    Timed.run ?until ?max_events sim)

let run ?until ?max_events t =
  let events, trace = launch ?until ?max_events t in
  analyze t ~events ~end_time:(Timed.now (sim t)) trace

let retire ?(grace = 30_000.0) ?max_events ~setup ~setup_events t =
  let sim =
    match t.s_sim with
    | Some sim -> sim
    | None -> invalid_arg "Session.retire: session was never launched"
  in
  let (events, end_time), teardown =
    Trace.recording_packed (fun () ->
      Timed.observe sim;
      (match t.s_hangup with Some h -> h t | None -> ());
      let events = Timed.run ~until:(Timed.now sim +. grace) ?max_events sim in
      (events, Timed.now sim))
  in
  t.s_sim <- None;
  analyze t ~events:(setup_events + events) ~end_time (Trace.Packed.append setup teardown)

let pp_outcome ppf (o : outcome) =
  Format.fprintf ppf "#%d %-8s %5d events, end %8.1f ms, %d trace, %s%a" o.id o.scenario
    o.events o.end_time (Trace.Packed.length o.trace)
    (if o.conformant then "conformant" else Printf.sprintf "%d violation(s)" o.violations)
    (fun ppf -> function
      | None -> ()
      | Some v -> Format.fprintf ppf ", %a" Monitor.pp_verdict v)
    o.verdict
