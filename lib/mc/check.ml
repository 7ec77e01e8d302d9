open Mediactl_core

module E = Explorer.Make (struct
  type state = Path_model.state
  type label = Path_model.label

  let successors = Path_model.successors
  let pack = Path_model.pack
  let pp_label = Path_model.pp_label
  let pp_state = Path_model.pp_state
end)

type safety = Safe | Unsafe of { witness : int; reason : string } | Not_established

type spec_result =
  | Spec_holds
  | Spec_violated of string
  | Inconclusive of string

type report = {
  config : Path_model.config;
  spec : Semantics.spec;
  states : int;
  transitions : int;
  terminals : int;
  time_s : float;
  capped : bool;
  safety : safety;
  spec_result : spec_result;
  counterexample : string list;
      (* a shortest trace of transition labels into the witness state,
         empty when everything holds *)
}

(* Environment ends may abandon mid-protocol, so segment checking only
   demands freedom from protocol errors.  A capped graph is scanned all
   the same: a protocol error in any state it discovered is real, but
   finding none establishes nothing. *)
let check_segment_safety graph =
  let n = Array.length graph.E.states in
  let rec scan id =
    if id >= n then if graph.E.capped then Not_established else Safe
    else
      match Path_model.error graph.E.states.(id) with
      | Some reason -> Unsafe { witness = id; reason }
      | None -> scan (id + 1)
  in
  scan 0

(* The terminal conditions hold of expanded states only: a state a
   capped run never expanded has an empty row, but may have successors. *)
let check_safety graph =
  let csr = graph.E.csr in
  let n = Array.length graph.E.states in
  let rec scan id =
    if id >= n then if graph.E.capped then Not_established else Safe
    else
      let state = graph.E.states.(id) in
      match Path_model.error state with
      | Some reason -> Unsafe { witness = id; reason }
      | None ->
        if id < graph.E.expanded && Csr.terminal csr id then
          if not (Path_model.clean state) then
            Unsafe { witness = id; reason = "terminal state with a half-open slot" }
          else if not (Path_model.all_settled state) then
            Unsafe { witness = id; reason = "terminal state inside a chaos phase" }
          else scan (id + 1)
        else scan (id + 1)
  in
  scan 0

(* A human-readable shortest trace from the initial state into [witness]. *)
let trace_to graph witness =
  E.path_to graph witness
  |> List.filter_map (fun (label, id) ->
         Option.map
           (fun label ->
             Format.asprintf "%a  =>  %a" Path_model.pp_label label Path_model.pp_state
               graph.E.states.(id))
           label)

let run ?max_states ?jobs config =
  let t0 = Unix.gettimeofday () in
  let graph =
    E.explore ?max_states ?jobs ~unpack:(Path_model.unpack config) (Path_model.initial config)
  in
  let spec = Path_model.spec config in
  let safety =
    if config.Path_model.environment_ends then check_segment_safety graph else check_safety graph
  in
  (* Under a loss budget nothing retransmits, so an unrepaired status
     loss leaves the peers' media views stale: the agreement refinement
     of bothFlowing is the reliability layer's obligation (experiment
     E9), while the signaling obligation — the slot state machines still
     converge — remains checkable and must hold. *)
  let lossy = config.Path_model.faults.Path_model.losses > 0 in
  let spec_result, spec_witness =
    if graph.E.capped then (Inconclusive "state space capped", None)
    else if config.Path_model.environment_ends then (Spec_holds, None)
      (* segment mode: only the safety lemma is meaningful — path
         specifications quantify over goal-controlled ends *)
    else
      (* Each leg carries its own obligation; a path has exactly one
         leg, reproducing the historical single check.  Under a loss
         budget the structural per-leg flowing predicate stands in for
         the agreement refinement (see {!Path_model.ends_flowing}). *)
      let legs = List.length (Path_model.leg_specs config) in
      let check_leg k leg_spec =
        let both_closed id = Path_model.leg_both_closed k graph.E.states.(id) in
        let both_flowing id =
          if lossy then Path_model.leg_ends_flowing k graph.E.states.(id)
          else Path_model.leg_both_flowing k graph.E.states.(id)
        in
        match Temporal.check leg_spec graph.E.csr ~both_closed ~both_flowing with
        | Temporal.Holds -> None
        | Temporal.Violated { witness; reason } ->
          let where = if legs > 1 then Printf.sprintf "leg %d: " k else "" in
          Some
            ( Spec_violated
                (Format.asprintf "%s%s; witness %d: %a" where reason witness Path_model.pp_state
                   graph.E.states.(witness)),
              Some witness )
      in
      let rec first_violation k = function
        | [] -> (Spec_holds, None)
        | leg_spec :: rest -> (
          match check_leg k leg_spec with
          | Some verdict -> verdict
          | None -> first_violation (k + 1) rest)
      in
      first_violation 0 (Path_model.leg_specs config)
  in
  let counterexample =
    match safety, spec_witness with
    | Unsafe { witness; _ }, _ -> trace_to graph witness
    | (Safe | Not_established), Some witness -> trace_to graph witness
    | (Safe | Not_established), None -> []
  in
  {
    config;
    spec;
    states = Array.length graph.E.states;
    transitions = graph.E.transition_count;
    terminals = Csr.terminal_count ~below:graph.E.expanded graph.E.csr;
    time_s = Unix.gettimeofday () -. t0;
    capped = graph.E.capped;
    safety;
    spec_result;
    counterexample;
  }

let passed r =
  match r.safety, r.spec_result with
  | Safe, Spec_holds -> true
  | (Safe | Unsafe _ | Not_established), _ -> false

let pp_report ppf r =
  let safety =
    match r.safety with
    | Safe -> "safe"
    | Unsafe { witness; reason } -> Printf.sprintf "UNSAFE: state %d: %s" witness reason
    | Not_established -> "not established"
  in
  let spec_result =
    match r.spec_result with
    | Spec_holds -> "holds"
    | Spec_violated msg -> "VIOLATED: " ^ msg
    | Inconclusive msg -> "inconclusive: " ^ msg
  in
  (* On a star the leg predicates conjoin over every leg, so the
     printed obligation quantifies N-way. *)
  let spec_label =
    if Path_model.leg_count r.config <= 1 then Semantics.spec_to_string r.spec
    else
      match r.spec with
      | Semantics.Eventually_always_closed -> "<>[] allClosed"
      | Semantics.Eventually_always_not_flowing -> "<>[] !allFlowing"
      | Semantics.Always_eventually_flowing -> "[]<> allFlowing"
      | Semantics.Closed_or_flowing -> "(<>[] allClosed) \\/ ([]<> allFlowing)"
  in
  if r.config.Path_model.environment_ends then
    Format.fprintf ppf
      "%-34s %9d states %10d trans %8d terminals %6.2fs  safety:%s  (segment: safety lemma only)"
      (Path_model.config_name r.config)
      r.states r.transitions r.terminals r.time_s safety
  else
    Format.fprintf ppf "%-34s %9d states %10d trans %8d terminals %6.2fs  safety:%s  %s: %s"
      (Path_model.config_name r.config)
      r.states r.transitions r.terminals r.time_s safety spec_label spec_result

let run_standard ?max_states ?jobs ?faults ~chaos ~modifies () =
  List.map (run ?max_states ?jobs) (Path_model.standard_configs ?faults ~chaos ~modifies ())

let run_segment ?max_states ?jobs ~flowlinks ~chaos () =
  run ?max_states ?jobs
    (Path_model.path_config ~environment_ends:true
       ~left:Mediactl_core.Semantics.Hold_end (* unused in env mode *)
       ~right:Mediactl_core.Semantics.Hold_end ~flowlinks ~chaos ~modifies:0 ())

let pp_counterexample ppf r =
  match r.counterexample with
  | [] -> Format.pp_print_string ppf "(no counterexample)"
  | steps ->
    Format.fprintf ppf "@[<v>counterexample (%d steps):@ %a@]" (List.length steps)
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut Format.pp_print_string)
      steps
