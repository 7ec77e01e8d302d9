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

(* What the checks read of a state, as bits of one int that the
   explorer keeps for it: the state's own predicates, then, per leg,
   its both-closed predicate and the flowing predicate its obligation
   is checked against. *)
let error_bit = 1
let clean_bit = 2
let settled_bit = 4
let closed_bit k = 1 lsl (3 + (2 * k))
let flowing_bit k = 1 lsl (4 + (2 * k))
let max_legs = (Sys.int_size - 3) / 2

let bits ~legs ~lossy state =
  let b = ref 0 in
  let set bit p = if p then b := !b lor bit in
  set error_bit (Option.is_some (Path_model.error state));
  set clean_bit (Path_model.clean state);
  set settled_bit (Path_model.all_settled state);
  for k = 0 to legs - 1 do
    set (closed_bit k) (Path_model.leg_both_closed k state);
    (* Under a loss budget the structural per-leg flowing predicate
       stands in for the agreement refinement (see
       {!Path_model.leg_ends_flowing}). *)
    set (flowing_bit k)
      (if lossy then Path_model.leg_ends_flowing k state else Path_model.leg_both_flowing k state)
  done;
  !b

let has graph bit id = graph.E.states.(id) land bit <> 0

(* The steps of a shortest path into [witness], each label with the
   state it leads to, rebuilt by replaying the path's labels from the
   initial state: no state offers two moves with one label, so each
   label picks exactly one successor.  The graph keeps no states. *)
let replay config graph witness =
  let _, steps =
    List.fold_left
      (fun (state, steps) (label, _) ->
        match label with
        | None -> (state, steps)
        | Some label ->
          let _, state' =
            List.find (fun (l, _) -> Path_model.equal_label l label) (Path_model.successors state)
          in
          (state', (label, state') :: steps))
      (Path_model.initial config, [])
      (E.path_to graph witness)
  in
  List.rev steps

let state_at config graph witness =
  match List.rev (replay config graph witness) with
  | (_, state) :: _ -> state
  | [] -> Path_model.initial config

(* A protocol error in any discovered state is a safety violation.  The
   terminal conditions hold of expanded states only: a state a capped
   run never expanded has an empty row, but may have successors.
   Environment ends may abandon mid-protocol, so segment checking only
   demands freedom from protocol errors.  A capped graph is scanned all
   the same: what it finds is real, but finding nothing establishes
   nothing. *)
let check_safety config graph =
  let terminal_conditions = not config.Path_model.environment_ends in
  let n = Array.length graph.E.states in
  let rec scan id =
    if id >= n then if graph.E.capped then Not_established else Safe
    else if has graph error_bit id then
      Unsafe
        { witness = id; reason = Option.get (Path_model.error (state_at config graph id)) }
    else if terminal_conditions && id < graph.E.expanded && Csr.terminal graph.E.csr id then
      if not (has graph clean_bit id) then
        Unsafe { witness = id; reason = "terminal state with a half-open slot" }
      else if not (has graph settled_bit id) then
        Unsafe { witness = id; reason = "terminal state inside a chaos phase" }
      else scan (id + 1)
    else scan (id + 1)
  in
  scan 0

(* A human-readable shortest trace from the initial state into [witness]. *)
let trace_to config graph witness =
  List.map
    (fun (label, state) ->
      Format.asprintf "%a  =>  %a" Path_model.pp_label label Path_model.pp_state state)
    (replay config graph witness)

let run ?max_states ?jobs config =
  let legs = Path_model.leg_count config in
  if legs > max_legs then
    invalid_arg
      (Printf.sprintf "Check.run: %d legs, but one int of predicate bits holds at most %d" legs
         max_legs);
  let t0 = Unix.gettimeofday () in
  (* Under a loss budget nothing retransmits, so an unrepaired status
     loss leaves the peers' media views stale: the agreement refinement
     of bothFlowing is the reliability layer's obligation (experiment
     E9), while the signaling obligation — the slot state machines still
     converge — remains checkable and must hold. *)
  let lossy = config.Path_model.faults.Path_model.losses > 0 in
  let graph =
    E.explore_with ?max_states ?jobs ~unpack:(Path_model.unpack config)
      ~keep:(bits ~legs ~lossy) (Path_model.initial config)
  in
  let spec = Path_model.spec config in
  let safety = check_safety config graph in
  let spec_result, spec_witness =
    if graph.E.capped then (Inconclusive "state space capped", None)
    else if config.Path_model.environment_ends then (Spec_holds, None)
      (* segment mode: only the safety lemma is meaningful — path
         specifications quantify over goal-controlled ends *)
    else
      (* Each leg carries its own obligation; a path has exactly one
         leg, reproducing the historical single check. *)
      let check_leg k leg_spec =
        match
          Temporal.check leg_spec graph.E.csr ~both_closed:(has graph (closed_bit k))
            ~both_flowing:(has graph (flowing_bit k))
        with
        | Temporal.Holds -> None
        | Temporal.Violated { witness; reason } ->
          let where = if legs > 1 then Printf.sprintf "leg %d: " k else "" in
          Some
            ( Spec_violated
                (Format.asprintf "%s%s; witness %d: %a" where reason witness Path_model.pp_state
                   (state_at config graph witness)),
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
    | Unsafe { witness; _ }, _ -> trace_to config graph witness
    | (Safe | Not_established), Some witness -> trace_to config graph witness
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
