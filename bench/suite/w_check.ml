(* check-seq and check-par: [Check.run] deciding two configurations,
   sequentially (jobs 1) and with the parallel explorer (jobs 2).  The
   first is a deep two-party path — openslot--fl--fl--openslot, one
   chaos action per goal object and a one-signal loss budget — and the
   second a wide three-party product, conf3(openslot x3)--fl--mixer
   with the same loss budget.  Successor generation, state packing and
   interning, and the temporal checks do the work; the runtime is not
   involved at all.  Nothing here is random: the seed only labels the
   run. *)

module PM = Mediactl_mc.Path_model
module Check = Mediactl_mc.Check
module Csr = Mediactl_mc.Csr
module Temporal = Mediactl_mc.Temporal
module Semantics = Mediactl_core.Semantics
module Spans = Harness.Spans

type pinned = { config : PM.config; states : int; transitions : int }

let loss1 = { PM.losses = 1; dups = 0; unrestricted = false }
let open3 = [ Semantics.Open_end; Semantics.Open_end; Semantics.Open_end ]

let path ?faults ~flowlinks ~chaos () =
  PM.path_config ?faults ~left:Semantics.Open_end ~right:Semantics.Open_end ~flowlinks ~chaos
    ~modifies:0 ()

(* The exact state and transition counts are part of the expected
   output: a change that alters them has changed the model, not just
   its speed. *)
let configs (ctx : Harness.ctx) =
  if ctx.smoke then
    [
      { config = path ~faults:loss1 ~flowlinks:1 ~chaos:1 (); states = 2_532; transitions = 7_362 };
      {
        config = PM.conf_config ~parties:open3 ~chaos:0 ~modifies:0 ();
        states = 15_625;
        transitions = 73_125;
      };
    ]
  else
    [
      { config = path ~faults:loss1 ~flowlinks:2 ~chaos:1 (); states = 50_383; transitions = 186_049 };
      {
        config = PM.conf_config ~faults:loss1 ~parties:open3 ~chaos:0 ~modifies:0 ();
        states = 40_000;
        transitions = 190_425;
      };
    ]

(* Set-up checks one small path configuration sequentially, for
   check-par too: the parallel explorer's first full-size run is the
   unmeasured warm-up repetition that follows.  It is kept to a few
   thousand states because a fresh process growing its heap is what a
   loaded host slows most and least predictably. *)
let warmup (ctx : Harness.ctx) =
  if ctx.smoke then path ~flowlinks:0 ~chaos:1 () else path ~faults:loss1 ~flowlinks:1 ~chaos:1 ()

let max_states = 1_000_000

(* ------------------------------------------------------------------ *)
(* The traced explorer                                                 *)

(* Per-domain call counters and busy time for the two functions the
   explorer calls per state and per transition.  Each domain the
   parallel explorer spawns registers its own record on first use, so
   the timers never share a cache line across domains. *)
type acc = {
  mutable succ_ns : int;
  mutable succ_calls : int;
  mutable pack_ns : int;
  mutable pack_calls : int;
  mutable key_bytes : int;
}

let registry = ref []
let registry_lock = Mutex.create ()

let acc_key =
  Domain.DLS.new_key (fun () ->
      let a = { succ_ns = 0; succ_calls = 0; pack_ns = 0; pack_calls = 0; key_bytes = 0 } in
      Mutex.protect registry_lock (fun () -> registry := a :: !registry);
      a)

let snapshot () =
  Mutex.protect registry_lock (fun () ->
      List.fold_left
        (fun (s, sc, p, pc, kb) a ->
          (s + a.succ_ns, sc + a.succ_calls, p + a.pack_ns, pc + a.pack_calls, kb + a.key_bytes))
        (0, 0, 0, 0, 0) !registry)

module Timed_model = struct
  type state = PM.state
  type label = PM.label

  let successors s =
    let a = Domain.DLS.get acc_key in
    let t0 = Harness.now_ns () in
    let r = PM.successors s in
    a.succ_ns <- a.succ_ns + (Harness.now_ns () - t0);
    a.succ_calls <- a.succ_calls + 1;
    r

  let pack s =
    let a = Domain.DLS.get acc_key in
    let t0 = Harness.now_ns () in
    let k = PM.pack s in
    a.pack_ns <- a.pack_ns + (Harness.now_ns () - t0);
    a.pack_calls <- a.pack_calls + 1;
    a.key_bytes <- a.key_bytes + String.length k;
    k

  let pp_label = PM.pp_label
  let pp_state = PM.pp_state
end

module TE = Mediactl_mc.Explorer.Make (Timed_model)

(* [Check.run]'s two decisions over the traced explorer's graph: the
   safety scan (no protocol error; terminal states clean and settled)
   and each leg's temporal obligation, with the structural flowing
   predicate under a loss budget. *)
let safe (g : TE.graph) =
  let rec scan id =
    id >= Array.length g.TE.states
    ||
    let s = g.TE.states.(id) in
    Option.is_none (PM.error s)
    && ((not (Csr.terminal g.TE.csr id)) || (PM.clean s && PM.all_settled s))
    && scan (id + 1)
  in
  scan 0

let temporal_holds config (g : TE.graph) =
  let lossy = config.PM.faults.PM.losses > 0 in
  List.for_all
    (fun (k, spec) ->
      let both_closed id = PM.leg_both_closed k g.TE.states.(id) in
      let both_flowing id =
        if lossy then PM.leg_ends_flowing k g.TE.states.(id)
        else PM.leg_both_flowing k g.TE.states.(id)
      in
      match Temporal.check spec g.TE.csr ~both_closed ~both_flowing with
      | Temporal.Holds -> true
      | Temporal.Violated _ -> false)
    (List.mapi (fun k s -> (k, s)) (PM.leg_specs config))

(* ------------------------------------------------------------------ *)

let decide ~jobs pinned =
  let t0 = Harness.now_ns () in
  let reports = List.map (fun p -> Check.run ~max_states ~jobs p.config) pinned in
  (reports, Harness.secs_since t0)

let report_ok p (r : Check.report) =
  Check.passed r && r.Check.states = p.states && r.Check.transitions = p.transitions

let traced sp ~jobs ~pinned ~untraced_s ~other_s =
  let before = snapshot () in
  let t0 = Harness.now_ns () in
  let results =
    List.mapi
      (fun i p ->
        Spans.within sp ~sid:i "bench.check" (fun () ->
            let g =
              Spans.within sp "mc.explore" (fun () ->
                  TE.explore ~max_states ~jobs ~unpack:(PM.unpack p.config) (PM.initial p.config))
            in
            let safety = Spans.within sp "mc.safety" (fun () -> safe g) in
            let temporal = Spans.within sp "mc.temporal" (fun () -> temporal_holds p.config g) in
            (Array.length g.TE.states, g.TE.transition_count, safety && temporal && not g.TE.capped)))
      pinned
  in
  let wall = Harness.secs_since t0 in
  let s0, sc0, p0, pc0, kb0 = before in
  let s1, sc1, p1, pc1, kb1 = snapshot () in
  let succ_s = Harness.secs_of_ns (s1 - s0) and pack_s = Harness.secs_of_ns (p1 - p0) in
  let pack_calls = pc1 - pc0 in
  let explore_s, _ = Spans.total sp "mc.explore" in
  let safety_s, _ = Spans.total sp "mc.safety" in
  let temporal_s, _ = Spans.total sp "mc.temporal" in
  let states = List.fold_left (fun a (s, _, _) -> a + s) 0 results in
  let transitions = List.fold_left (fun a (_, t, _) -> a + t) 0 results in
  let ledger =
    {
      Harness.wall_s = wall;
      lanes = 1;
      rows = Spans.self_by_layer sp;
      overhead_pct = 100.0 *. (Harness.ratio wall untraced_s -. 1.0);
    }
  in
  let domain_s = float_of_int jobs *. explore_s in
  let seq_s, par_s = if jobs = 1 then (untraced_s, other_s) else (other_s, untraced_s) in
  let values =
    Harness.ledger_values ledger ~spans:(Spans.length sp)
    @ [
        ("mc.successors_per_s", Harness.per_s (sc1 - sc0) succ_s);
        ("mc.packs_per_s", Harness.per_s pack_calls pack_s);
        ("mc.explore_other_pct", 100.0 *. Harness.ratio (domain_s -. succ_s -. pack_s) domain_s);
        ("mc.safety_pct", 100.0 *. Harness.ratio safety_s wall);
        ("mc.temporal_pct", 100.0 *. Harness.ratio temporal_s wall);
        ("mc.states_per_s", Harness.per_s states explore_s);
        ("mc.transitions_per_state", Harness.ratio (float_of_int transitions) (float_of_int states));
        ("mc.key_bytes", Harness.ratio (float_of_int (kb1 - kb0)) (float_of_int pack_calls));
        ("mc.new_state_ratio", Harness.ratio (float_of_int states) (float_of_int transitions));
        ("mc.par_speedup", Harness.ratio seq_s par_s);
      ]
  in
  let agree =
    List.for_all2
      (fun p (s, t, ok) -> ok && s = p.states && t = p.transitions)
      pinned results
  in
  (ledger, values, Harness.check "traced explorer reproduces the pinned counts and verdicts" agree
     (String.concat "; " (List.map (fun (s, t, ok) -> Printf.sprintf "%d/%d %s" s t (if ok then "pass" else "FAIL")) results)))

let make ~name ~jobs =
  let setup ctx = ignore (Check.run ~max_states ~jobs:1 (warmup ctx)) in
  let run (host : Harness.host) (ctx : Harness.ctx) =
    setup ctx;
    let pinned = configs ctx in
    (* grow the heap to its working size before timing *)
    ignore (decide ~jobs pinned);
    let walls = ref [] and attempted = ref 0 and failed = ref 0 and counts = ref [] in
    let t0 = Harness.now_ns () in
    let reps =
      Harness.repeat ~t0 ~seconds:ctx.seconds (fun r ->
          let reports, wall = decide ~jobs pinned in
          walls := wall :: !walls;
          List.iter2
            (fun p rep ->
              incr attempted;
              if not (report_ok p rep) then incr failed)
            pinned reports;
          if r = 0 then
            counts :=
              List.map (fun (rep : Check.report) -> (rep.Check.states, rep.Check.transitions)) reports)
    in
    let measured_s = Harness.secs_since t0 in
    let peak_mb = Harness.peak_rss_mb () in
    let untraced_s = Harness.median !walls in
    let e2e =
      [
        ("throughput_per_s", Harness.per_s (List.length pinned) untraced_s);
        ("latency_ms", 1000.0 *. untraced_s);
        ("peak_rss_mb", peak_mb);
      ]
    in
    let counts_text =
      String.concat "; "
        (List.map2
           (fun p (s, t) -> Printf.sprintf "%s %d/%d" (PM.config_name p.config) s t)
           pinned !counts)
    in
    let checks =
      [
        Harness.check "every config passes with its pinned state and transition counts"
          (!failed = 0) counts_text;
      ]
    in
    let unresolved =
      if jobs > 1 && host.Harness.usable_domains < jobs then
        [
          Printf.sprintf
            "unresolved: the host delivered %d usable domain(s) (efficiency %.2f), fewer than \
             jobs %d, so these numbers do not measure parallel speed-up"
            host.Harness.usable_domains host.Harness.parallel_efficiency jobs;
        ]
      else []
    in
    let ledger, per_layer, checks =
      match ctx.spans with
      | None -> (None, [], checks)
      | Some sp ->
        let _, other_s = decide ~jobs:(if jobs = 1 then 2 else 1) pinned in
        let ledger, values, c = traced sp ~jobs ~pinned ~untraced_s ~other_s in
        (Some ledger, values, checks @ [ c ])
    in
    {
      Harness.workload = name;
      seed = ctx.seed;
      measured_s;
      reps;
      attempted = !attempted;
      failed = !failed;
      checks;
      digest =
        Digest.to_hex
          (Digest.string
             (String.concat ";" (List.map (fun (s, t) -> Printf.sprintf "%d/%d" s t) !counts)));
      e2e;
      per_layer;
      ledger;
      view =
        [
          ("verdict_s", untraced_s, "s");
          ("peak_rss_mb", peak_mb, "MB");
        ];
      notes = Printf.sprintf "jobs %d, configs: %s" jobs counts_text :: unresolved;
    }
  in
  { Harness.name; setup; run }

let seq = make ~name:"check-seq" ~jobs:1
let par = make ~name:"check-par" ~jobs:2
