(* Tests for the model checker: the generic explorer at every job
   count, Tarjan SCC, the temporal decision procedures on hand-built
   graphs, small runs of the paper's path models, jobs 1 = jobs 4
   identity, and the packed state codec. *)

open Mediactl_core
open Mediactl_mc

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstring = Alcotest.string

(* --- explorer on a toy system ---------------------------------------- *)

module Counter = struct
  (* States 0..5; from k you can +1 (mod 6) or jump to 0. *)
  type state = int
  type label = Step | Reset

  let successors k = if k >= 5 then [ (Reset, 0) ] else [ (Step, k + 1); (Reset, 0) ]
  let pack = string_of_int

  let pp_label ppf = function
    | Step -> Format.pp_print_string ppf "step"
    | Reset -> Format.pp_print_string ppf "reset"

  let pp_state = Format.pp_print_int
end

module CE = Explorer.Make (Counter)

let test_explorer_reachability () =
  let g = CE.explore 0 in
  check tint "states" 6 (Array.length g.CE.states);
  check tint "transitions" 11 g.CE.transition_count;
  check tbool "no deadlocks" true (CE.deadlocks g = []);
  check tbool "not capped" false g.CE.capped

let test_explorer_cap () =
  let g = CE.explore ~max_states:3 0 in
  check tbool "capped" true g.CE.capped

let test_explorer_path_to () =
  let g = CE.explore 0 in
  let path = CE.path_to g 3 in
  check tint "shortest path length" 4 (List.length path);
  check tbool "ends at target" true
    (match List.rev path with
    | (_, id) :: _ -> g.CE.states.(id) = 3
    | [] -> false)

(* Every job count must build the jobs-1 space itself: the same kept
   values by id, rows, labels, expansion and cap.  A space is compared
   as this tuple of its fields. *)
let same_space name (kept1, csr1, labels1, m1, expanded1, capped1)
    (kept, csr, labels, m, expanded, capped) =
  check tbool (name ^ " kept") true (kept1 = kept);
  check tbool (name ^ " csr") true (csr1 = csr);
  check tbool (name ^ " labels") true (labels1 = labels);
  check tint (name ^ " transitions") m1 m;
  check tint (name ^ " expanded") expanded1 expanded;
  check tbool (name ^ " capped") capped1 capped

let ce_space g = CE.(g.states, g.csr, g.labels, g.transition_count, g.expanded, g.capped)

let test_explorer_parallel_counter () =
  List.iter
    (fun max_states ->
      let g1 = CE.explore ~jobs:1 ~max_states 0 in
      List.iter
        (fun jobs ->
          same_space
            (Printf.sprintf "jobs %d, cap %d" jobs max_states)
            (ce_space g1)
            (ce_space (CE.explore ~jobs ~max_states 0)))
        [ 2; 3; 4 ])
    [ 1_000_000; 3 ]

(* A system that raises while it is explored raises out of the
   explorer at every job count, whichever domain expands the state. *)
module Raising = struct
  include Counter

  let successors k = if k = 4 then failwith "successors of 4" else Counter.successors k
end

module RE = Explorer.Make (Raising)

let test_explorer_raises () =
  List.iter
    (fun jobs ->
      match RE.explore ~jobs 0 with
      | (_ : RE.graph) -> Alcotest.failf "jobs %d explored past a raising state" jobs
      | exception Failure msg ->
        check tstring (Printf.sprintf "jobs %d" jobs) "successors of 4" msg)
    [ 1; 2; 3; 4 ]

(* --- scc -------------------------------------------------------------- *)

let test_scc_line () =
  (* 0 -> 1 -> 2: three trivial components, no cycles. *)
  let scc = Scc.compute (Csr.of_lists [| [ 1 ]; [ 2 ]; [] |]) in
  check tint "components" 3 scc.Scc.count;
  check tbool "nothing cyclic" true
    (not (Scc.on_cycle scc 0 || Scc.on_cycle scc 1 || Scc.on_cycle scc 2))

let test_scc_cycle () =
  (* 0 -> 1 -> 2 -> 1 and 2 -> 3. *)
  let scc = Scc.compute (Csr.of_lists [| [ 1 ]; [ 2 ]; [ 1; 3 ]; [] |]) in
  check tbool "1 and 2 share a component" true (scc.Scc.component.(1) = scc.Scc.component.(2));
  check tbool "1 on cycle" true (Scc.on_cycle scc 1);
  check tbool "0 not on cycle" false (Scc.on_cycle scc 0);
  check tbool "3 not on cycle" false (Scc.on_cycle scc 3)

let test_scc_self_loop () =
  let scc = Scc.compute (Csr.of_lists [| [ 0; 1 ]; [] |]) in
  check tbool "self loop cyclic" true (Scc.on_cycle scc 0);
  check tbool "other not" false (Scc.on_cycle scc 1)

let test_scc_big_line_no_overflow () =
  (* A 200k-node path: the iterative Tarjan must not overflow. *)
  let n = 200_000 in
  let succs = Array.init n (fun i -> if i = n - 1 then [] else [ i + 1 ]) in
  let scc = Scc.compute (Csr.of_lists succs) in
  check tint "components" n scc.Scc.count

(* --- csr -------------------------------------------------------------- *)

let test_csr_shape () =
  let g = Csr.of_lists [| [ 1; 2 ]; [ 2 ]; [] |] in
  check tint "n" 3 (Csr.n g);
  check tint "edges" 3 (Csr.edges g);
  check tint "out_degree 0" 2 (Csr.out_degree g 0);
  check tint "out_degree 2" 0 (Csr.out_degree g 2);
  check tbool "terminal" true (Csr.terminal g 2);
  check tbool "non-terminal" false (Csr.terminal g 0);
  check tint "terminal_count" 1 (Csr.terminal_count g);
  let seen = ref [] in
  Csr.iter_succ g 0 (fun d -> seen := d :: !seen);
  check tbool "iter_succ" true (List.sort compare !seen = [ 1; 2 ])

let test_csr_restrict () =
  (* Drop state 1 of 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 0: its incident edges
     go, ids stay. *)
  let g = Csr.of_lists [| [ 1; 2 ]; [ 2 ]; [ 0 ] |] in
  let sub = Csr.restrict g ~keep:(fun v -> v <> 1) in
  check tint "sub n" 3 (Csr.n sub);
  check tint "sub edges" 2 (Csr.edges sub);
  check tint "dropped state isolated" 0 (Csr.out_degree sub 1)

(* --- temporal --------------------------------------------------------- *)

let holds = function
  | Temporal.Holds -> true
  | Temporal.Violated _ -> false

let test_eventually_always () =
  (* 0 -> 1 -> 2(loop): p holds on 2 only. *)
  let g = Csr.of_lists [| [ 1 ]; [ 2 ]; [ 2 ] |] in
  let p2 i = i = 2 in
  check tbool "holds" true (holds (Temporal.eventually_always g ~p:p2));
  (* Cycle visits a !p state. *)
  let g_bad = Csr.of_lists [| [ 1 ]; [ 2 ]; [ 1 ] |] in
  check tbool "violated by cycle" false (holds (Temporal.eventually_always g_bad ~p:p2));
  (* Terminal state violating p. *)
  let g_term = Csr.of_lists [| [ 1 ]; [] |] in
  check tbool "violated by terminal" false
    (holds (Temporal.eventually_always g_term ~p:(fun i -> i = 0)))

let test_always_eventually () =
  (* A loop 0 -> 1 -> 0 where p holds at 1: hit infinitely often. *)
  let g = Csr.of_lists [| [ 1 ]; [ 0 ] |] in
  check tbool "recurs" true (holds (Temporal.always_eventually g ~p:(fun i -> i = 1)));
  (* A loop avoiding p entirely. *)
  let g_bad = Csr.of_lists [| [ 1 ]; [ 0 ]; [] |] in
  check tbool "avoided" false (holds (Temporal.always_eventually g_bad ~p:(fun i -> i = 2)))

let test_stabilize_or_recur () =
  (* Cycle entirely within the stable set: fine. *)
  let g = Csr.of_lists [| [ 1 ]; [ 0 ] |] in
  let stable _ = true in
  let recur _ = false in
  check tbool "stable cycle ok" true (holds (Temporal.stabilize_or_recur g ~stable ~recur));
  (* Cycle leaving stable without recurring: violation. *)
  let stable i = i = 0 in
  check tbool "unstable cycle bad" false (holds (Temporal.stabilize_or_recur g ~stable ~recur));
  (* Same cycle, but recurring: fine. *)
  let recur i = i = 1 in
  check tbool "recurring cycle ok" true (holds (Temporal.stabilize_or_recur g ~stable ~recur))

(* --- path models ------------------------------------------------------ *)

let run_config left right flowlinks =
  Check.run (Path_model.path_config ~left ~right ~flowlinks ~chaos:0 ~modifies:1 ())

let test_path_models_no_chaos () =
  (* With no chaos the state spaces are small; all six types must pass
     at 0 flowlinks. *)
  let kinds = [ Semantics.Open_end; Semantics.Close_end; Semantics.Hold_end ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let r = run_config a b 0 in
          if not (Check.passed r) then
            Alcotest.failf "config failed: %a" Check.pp_report r)
        kinds)
    kinds

let test_path_model_one_flowlink () =
  let r = run_config Semantics.Open_end Semantics.Hold_end 1 in
  check tbool "passed" true (Check.passed r);
  check tbool "nontrivial" true (r.Check.states > 50)

let test_flowlink_blowup_shape () =
  (* Adding a flowlink must multiply the state space (the paper's
     resource-growth observation, section VIII-A). *)
  let r0 = run_config Semantics.Open_end Semantics.Open_end 0 in
  let r1 = run_config Semantics.Open_end Semantics.Open_end 1 in
  check tbool "multiplicative blowup" true (r1.Check.states > 3 * r0.Check.states)

let test_standard_configs_count () =
  check tint "12 models" 12 (List.length (Path_model.standard_configs ~chaos:1 ~modifies:0 ()))

let test_passing_reports_have_no_counterexample () =
  let r = run_config Semantics.Open_end Semantics.Hold_end 0 in
  check tbool "passed" true (Check.passed r);
  check tbool "empty counterexample" true (r.Check.counterexample = [])

let test_segment_lemma () =
  (* Section VIII-B: one interior flowlink is safe under arbitrary
     protocol-legal environments at the cut points. *)
  let r = Check.run_segment ~flowlinks:1 ~chaos:1 () in
  check tbool "safe" true (Check.passed r);
  check tbool "nontrivial" true (r.Check.states > 100)

let test_segment_two_flowlinks () =
  (* The two-flowlink segment the paper could not afford in Spin. *)
  let r = Check.run_segment ~flowlinks:2 ~chaos:1 () in
  check tbool "safe" true (Check.passed r)

(* --- network faults --------------------------------------------------- *)

let run_faulted faults left right =
  Check.run (Path_model.path_config ~faults ~left ~right ~flowlinks:0 ~chaos:1 ~modifies:0 ())

let test_idempotent_faults_harmless () =
  (* The section-VI claim, mechanised: a network that may drop and
     duplicate describe/select signals changes nothing the safety checks
     or temporal specifications can observe. *)
  let faults = { Path_model.losses = 1; dups = 1; unrestricted = false } in
  let kinds = [ Semantics.Open_end; Semantics.Close_end; Semantics.Hold_end ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let r = run_faulted faults a b in
          if not (Check.passed r) then
            Alcotest.failf "faulted config failed: %a" Check.pp_report r)
        kinds)
    kinds

let test_fault_budget_grows_state_space () =
  let r0 = run_faulted Path_model.no_faults Semantics.Open_end Semantics.Hold_end in
  let r1 =
    run_faulted { Path_model.losses = 1; dups = 1; unrestricted = false } Semantics.Open_end
      Semantics.Hold_end
  in
  check tbool "faults explored" true (r1.Check.states > r0.Check.states)

let test_unrestricted_dup_finds_violation () =
  (* Duplicating a handshake signal must desynchronise the slot state
     machines — the violation the reliability layer's sequence-number
     deduplication exists to remove. *)
  let faults = { Path_model.losses = 0; dups = 1; unrestricted = true } in
  let r = run_faulted faults Semantics.Open_end Semantics.Hold_end in
  check tbool "found" false (Check.passed r);
  check tbool "safety violation" true
    (match r.Check.safety with
    | Check.Unsafe _ -> true
    | Check.Safe | Check.Not_established -> false);
  check tbool "counterexample" true (r.Check.counterexample <> [])

let test_unrestricted_loss_finds_violation () =
  (* Losing a handshake signal wedges the protocol short of its goal. *)
  let faults = { Path_model.losses = 1; dups = 0; unrestricted = true } in
  let r = run_faulted faults Semantics.Open_end Semantics.Hold_end in
  check tbool "found" false (Check.passed r)

(* A capped run reports what it found and nothing it did not check.
   Both configurations stop at their cap having found nothing, which
   establishes nothing; the uncapped lossy run is unsafe.  Every job
   count stops at the same state and prints the same rows.  Terminals
   are counted among expanded states only: a frontier state's row is
   empty because nobody expanded it. *)
let safety = function
  | Check.Safe -> "safe"
  | Check.Unsafe { witness; reason } -> Printf.sprintf "UNSAFE: state %d: %s" witness reason
  | Check.Not_established -> "not established"

let test_capped_reports () =
  let row ~jobs ~max_states config =
    let r = Check.run ~jobs ~max_states config in
    check tbool "capped" true r.Check.capped;
    check tbool "not passed" false (Check.passed r);
    Printf.sprintf "%d states %d terminals safety:%s" r.Check.states r.Check.terminals
      (safety r.Check.safety)
  in
  let lossy =
    Path_model.path_config
      ~faults:{ Path_model.losses = 1; dups = 0; unrestricted = true }
      ~left:Semantics.Open_end ~right:Semantics.Open_end ~flowlinks:0 ~chaos:0 ~modifies:0 ()
  in
  let flowlink =
    Path_model.path_config ~left:Semantics.Open_end ~right:Semantics.Open_end ~flowlinks:1
      ~chaos:1 ~modifies:0 ()
  in
  List.iter
    (fun jobs ->
      check tstring
        (Printf.sprintf "lossy, 20 states, jobs %d" jobs)
        "23 states 0 terminals safety:not established" (row ~jobs ~max_states:20 lossy);
      check tstring
        (Printf.sprintf "flowlink, 500 states, jobs %d" jobs)
        "500 states 0 terminals safety:not established"
        (row ~jobs ~max_states:500 flowlink);
      check tstring
        (Printf.sprintf "uncapped lossy, jobs %d" jobs)
        "UNSAFE: state 16: terminal state with a half-open slot"
        (safety (Check.run ~jobs lossy).Check.safety))
    [ 1; 2 ];
  let g = CE.explore ~max_states:3 0 in
  check tint "a capped explorer expanded what it counted" 2 g.CE.expanded;
  check tint "an uncapped one expanded every state" 6 (CE.explore 0).CE.expanded

(* --- parallel determinism --------------------------------------------- *)

(* A report at jobs 4 is the jobs-1 report, time aside: the counts, the
   verdicts with their witnesses, and the counterexample. *)
let agree config =
  let r1 = Check.run ~jobs:1 config in
  let r4 = Check.run ~jobs:4 config in
  let name = Path_model.config_name config in
  let text r = Format.asprintf "%a" Check.pp_report { r with Check.time_s = 0.0 } in
  check tstring (name ^ " report") (text r1) (text r4);
  check
    Alcotest.(list string)
    (name ^ " counterexample") r1.Check.counterexample r4.Check.counterexample;
  check tbool (name ^ " whole report") true ({ r4 with Check.time_s = r1.Check.time_s } = r1)

let test_parallel_determinism_standard () =
  List.iter agree (Path_model.standard_configs ~chaos:1 ~modifies:0 ())

let test_parallel_determinism_faults () =
  let faults = { Path_model.losses = 1; dups = 1; unrestricted = false } in
  List.iter agree (Path_model.standard_configs ~faults ~chaos:1 ~modifies:0 ())

let test_parallel_determinism_unsafe () =
  (* A violating model: the parallel search must find the same verdict. *)
  let faults = { Path_model.losses = 0; dups = 1; unrestricted = true } in
  agree
    (Path_model.path_config ~faults ~left:Semantics.Open_end ~right:Semantics.Hold_end
       ~flowlinks:0 ~chaos:1 ~modifies:0 ())

let test_parallel_determinism_segment () =
  agree
    (Path_model.path_config ~environment_ends:true ~left:Semantics.Hold_end
       ~right:Semantics.Hold_end ~flowlinks:1 ~chaos:1 ~modifies:0 ())

let conf3 ?faults () =
  Path_model.conf_config ?faults
    ~parties:[ Semantics.Open_end; Semantics.Open_end; Semantics.Open_end ]
    ~flowlinks:1 ~chaos:0 ~modifies:0 ()

let test_parallel_determinism_star () = agree (conf3 ())

let test_star_exact_size () =
  (* The star encoding is canonical, so the 3-party reachable-space
     size is an exact invariant shared with the committed E17 baseline:
     drift means the model or the codec changed semantics. *)
  let r = Check.run (conf3 ()) in
  check tint "conf3 states" 15625 r.Check.states;
  check tint "conf3 transitions" 73125 r.Check.transitions;
  check tbool "conf3 passed" true (Check.passed r)

(* --- packed state codec ----------------------------------------------- *)

(* A random walk through the model driven by a list of choice indices:
   goal phases, cached descriptors and selectors, in-flight signals,
   mute changes, fault budgets, and error states all show up along some
   walk, so the round-trip property exercises every branch of the
   codec. *)
let state_of_walk config choices =
  List.fold_left
    (fun s k ->
      match Path_model.successors s with
      | [] -> s
      | succs -> snd (List.nth succs (k mod List.length succs)))
    (Path_model.initial config) choices

let roundtrip config s =
  Path_model.equal_state s (Path_model.unpack config (Path_model.pack s))

let walk_gen = QCheck2.Gen.(list_size (int_range 0 40) (int_range 0 1023))

let prop_pack_roundtrip =
  let config =
    Path_model.path_config
      ~faults:{ Path_model.losses = 1; dups = 1; unrestricted = false }
      ~left:Semantics.Open_end ~right:Semantics.Hold_end ~flowlinks:1 ~chaos:2 ~modifies:1 ()
  in
  QCheck2.Test.make ~name:"unpack (pack s) = s along random walks" ~count:400 walk_gen
    (fun choices -> roundtrip config (state_of_walk config choices))

let prop_pack_roundtrip_star =
  (* The star codec interleaves per-leg fields; walks over a faulted
     3-party mixer with chaos and a modify budget reach every branch. *)
  let config =
    Path_model.conf_config
      ~faults:{ Path_model.losses = 1; dups = 1; unrestricted = false }
      ~parties:[ Semantics.Open_end; Semantics.Open_end; Semantics.Hold_end ]
      ~flowlinks:1 ~chaos:1 ~modifies:1 ()
  in
  QCheck2.Test.make ~name:"star round-trip along random walks" ~count:400 walk_gen
    (fun choices -> roundtrip config (state_of_walk config choices))

let prop_pack_roundtrip_unrestricted =
  (* Unrestricted faults reach protocol-error states, covering the
     [err] branch of the codec. *)
  let config =
    Path_model.path_config
      ~faults:{ Path_model.losses = 1; dups = 1; unrestricted = true }
      ~left:Semantics.Close_end ~right:Semantics.Open_end ~flowlinks:0 ~chaos:2 ~modifies:0 ()
  in
  QCheck2.Test.make ~name:"round-trip survives protocol-error states" ~count:400 walk_gen
    (fun choices -> roundtrip config (state_of_walk config choices))

(* The path model as an explorer system, for the tests that need its
   states in discovery order. *)
module PE = Explorer.Make (struct
  type state = Path_model.state
  type label = Path_model.label

  let successors = Path_model.successors
  let pack = Path_model.pack
  let pp_label = Path_model.pp_label
  let pp_state = Path_model.pp_state
end)

let loss1 = { Path_model.losses = 1; dups = 0; unrestricted = false }

let open_fl_open =
  Path_model.path_config ~faults:loss1 ~left:Semantics.Open_end ~right:Semantics.Open_end
    ~flowlinks:1 ~chaos:1 ~modifies:0 ()

let open_hold =
  Path_model.path_config ~left:Semantics.Open_end ~right:Semantics.Hold_end ~flowlinks:0
    ~chaos:1 ~modifies:1 ()

let close_open_any =
  Path_model.path_config
    ~faults:{ Path_model.losses = 1; dups = 1; unrestricted = true }
    ~left:Semantics.Close_end ~right:Semantics.Open_end ~flowlinks:0 ~chaos:2 ~modifies:0 ()

let explored config = PE.explore ~jobs:1 (Path_model.initial config)

let test_pack_keys_pinned () =
  (* The byte format is a contract: [unpack], the states a parallel run
     rebuilds from keys and every committed state count rest on it.  The
     digest covers every key, length-prefixed, in discovery order, so a
     changed byte, a reordered field or a reordered successor all show. *)
  let pinned config ~states ~errors digest =
    let g = explored config in
    let name = Path_model.config_name config in
    let b = Buffer.create 65536 in
    Array.iter
      (fun s ->
        let k = Path_model.pack s in
        Buffer.add_string b (string_of_int (String.length k));
        Buffer.add_char b ':';
        Buffer.add_string b k)
      g.PE.states;
    let n_errors =
      Array.fold_left
        (fun n s -> if Option.is_some (Path_model.error s) then n + 1 else n)
        0 g.PE.states
    in
    check tint (name ^ " states") states (Array.length g.PE.states);
    check tint (name ^ " error states") errors n_errors;
    check tstring (name ^ " key digest") digest (Digest.to_hex (Digest.string (Buffer.contents b)))
  in
  pinned open_fl_open ~states:2_532 ~errors:0 "66d911bb5c617ea74e4ee5da23ce0c22";
  pinned open_hold ~states:3_188 ~errors:0 "ac7ff9e158de9e2dbf598c2163246f16";
  pinned close_open_any ~states:8_705 ~errors:1_357 "ee9c6447aa23daf3713b2f055731f020";
  pinned (conf3 ()) ~states:15_625 ~errors:0 "581fc5a51bdfda3068989ef30fa2e853"

(* The printed counterexamples are pinned.  The graph keeps no states,
   so each step's state, and the witness a violated spec prints, are
   rebuilt by replaying the path's labels from the initial state; a
   replay that took a wrong successor would change the text.  Every job
   count numbers the states alike, so jobs 2 prints the jobs-1 text. *)
let test_counterexamples_pinned () =
  let text ~jobs config =
    let r = Check.run ~jobs config in
    let spec =
      match r.Check.spec_result with
      | Check.Spec_holds -> "holds"
      | Check.Spec_violated msg -> "VIOLATED: " ^ msg
      | Check.Inconclusive msg -> "inconclusive: " ^ msg
    in
    safety r.Check.safety :: spec :: r.Check.counterexample
  in
  let open_hold_loss =
    Path_model.path_config
      ~faults:{ Path_model.losses = 1; dups = 0; unrestricted = true }
      ~left:Semantics.Open_end ~right:Semantics.Hold_end ~flowlinks:0 ~chaos:1 ~modifies:0 ()
  in
  let pinned name config ~jobs lines =
    check Alcotest.(list string) (Printf.sprintf "%s, jobs %d" name jobs) lines (text ~jobs config)
  in
  List.iter
    (fun jobs ->
      pinned "closeslot--openslot" close_open_any ~jobs
        [
          "UNSAFE: state 22: terminal state with a half-open slot";
          "VIOLATED: terminal state violates p; witness 373: [flowing |  | flowing] \
           ERROR:unexpected oack in state flowing";
          "switch L  =>  [closed |  | closed]";
          "switch R  =>  [closed |  | opening]";
          "lose t0 <-  =>  [closed |  | opening]";
        ];
      pinned "openslot--holdslot" open_hold_loss ~jobs
        [
          "UNSAFE: state 19: terminal state with a half-open slot";
          "VIOLATED: terminal state violates p; witness 19: [opening |  | closed]";
          "switch L  =>  [opening |  | closed]";
          "lose t0 ->  =>  [opening |  | closed]";
          "switch R  =>  [opening |  | closed]";
        ])
    [ 1; 2 ]

let test_oversized_budgets_fail () =
  (* One byte per budget: a value that outgrows it must raise, never
     wrap into a key another state owns. *)
  let packs ~modifies ~chaos ~losses ~dups =
    let c =
      Path_model.path_config
        ~faults:{ Path_model.losses; dups; unrestricted = false }
        ~left:Semantics.Open_end ~right:Semantics.Open_end ~flowlinks:1 ~chaos ~modifies ()
    in
    match Path_model.pack (Path_model.initial c) with
    | (_ : string) -> true
    | exception Invalid_argument _ -> false
  in
  List.iter
    (fun n ->
      let fits = n < 256 in
      let budget name ~modifies ~chaos ~losses ~dups =
        check tbool (Printf.sprintf "%s %d" name n) fits (packs ~modifies ~chaos ~losses ~dups)
      in
      budget "modifies" ~modifies:n ~chaos:0 ~losses:0 ~dups:0;
      budget "chaos" ~modifies:0 ~chaos:n ~losses:0 ~dups:0;
      budget "losses" ~modifies:0 ~chaos:0 ~losses:n ~dups:0;
      budget "dups" ~modifies:0 ~chaos:0 ~losses:0 ~dups:n)
    [ 255; 256 ]

module State_set = Set.Make (struct
  type t = Path_model.state

  let compare = compare
end)

(* Reachable states deduplicated structurally, by a BFS that never
   packs: the count the keyed explorer must reproduce. *)
let structural_count config =
  let rec level seen = function
    | [] -> State_set.cardinal seen
    | frontier ->
      let seen, next =
        List.fold_left
          (fun acc s ->
            List.fold_left
              (fun (seen, next) (_, s') ->
                if State_set.mem s' seen then (seen, next) else (State_set.add s' seen, s' :: next))
              acc (Path_model.successors s))
          (seen, []) frontier
      in
      level seen next
  in
  let s0 = Path_model.initial config in
  level (State_set.singleton s0) [ s0 ]

let test_pack_distinguishes_states () =
  (* The packed keys are the intern keys: a collision would merge two
     states during exploration, and a key that varied for equal states
     would split one.  Either way the keyed count leaves the structural
     one. *)
  List.iter
    (fun (config, states) ->
      let name = Path_model.config_name config in
      let r = Check.run config in
      check tint (name ^ " keyed states") states r.Check.states;
      check tint (name ^ " structural states") states (structural_count config);
      check tbool (name ^ " passed") true (Check.passed r))
    [ (open_hold, 3_188); (open_fl_open, 2_532) ]

let test_pack_allocates_only_its_key () =
  (* [pack] writes into a reused per-domain scratch, so each call's
     only allocation is the returned key's own block: a header word and
     [len / 8 + 1] words of bytes and padding. *)
  let words_of_pack s =
    let w0 = Gc.minor_words () in
    let k = Path_model.pack s in
    let w1 = Gc.minor_words () in
    (k, int_of_float (w1 -. w0))
  in
  List.iter
    (fun config ->
      let g = explored config in
      let name = Path_model.config_name config in
      ignore (Path_model.pack g.PE.states.(0) : string);
      let n = Array.length g.PE.states in
      let over = ref 0 and words = ref 0 and key_words = ref 0 in
      Array.iter
        (fun s ->
          let k, w = words_of_pack s in
          let kw = (String.length k / 8) + 2 in
          if w <> kw then incr over;
          words := !words + w;
          key_words := !key_words + kw)
        g.PE.states;
      if !over > 0 then
        Alcotest.failf
          "%s: %d of %d packs allocate beyond their key (%.1f words per pack, keys %.1f)" name
          !over n
          (float_of_int !words /. float_of_int n)
          (float_of_int !key_words /. float_of_int n))
    [ open_fl_open; close_open_any; conf3 () ]

let open_fl_fl_open =
  Path_model.path_config ~faults:loss1 ~left:Semantics.Open_end ~right:Semantics.Open_end
    ~flowlinks:2 ~chaos:1 ~modifies:0 ()

let test_unpack_allocates_only_the_state () =
  (* [unpack c] builds the slot labels and flowlink locals of [c] once;
     each call then allocates only the decoded state.  Rebuilding them
     on every call costs 867 words per key on this configuration; the
     decoded states average 379. *)
  let g = PE.explore_with ~jobs:1 ~keep:Path_model.pack (Path_model.initial open_fl_fl_open) in
  let unpack = Path_model.unpack open_fl_fl_open in
  ignore (unpack g.PE.states.(0) : Path_model.state);
  let w0 = Gc.minor_words () in
  Array.iter (fun k -> ignore (Sys.opaque_identity (unpack k) : Path_model.state)) g.PE.states;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int (Array.length g.PE.states) in
  if per_call > 450.0 then
    Alcotest.failf "unpack allocates %.1f words per call, more than 450" per_call

let test_long_keys () =
  (* A 64-party star's keys run past a kilobyte, longer than any key
     above, so packing one grows the per-domain scratch mid-key; the
     grown key must still round-trip. *)
  let config =
    Path_model.conf_config
      ~parties:(List.init 64 (fun _ -> Semantics.Open_end))
      ~flowlinks:1 ~chaos:0 ~modifies:0 ()
  in
  let s = state_of_walk config (List.init 60 (fun i -> i * 7)) in
  check tbool "over a kilobyte" true (String.length (Path_model.pack s) > 1024);
  check tbool "round-trips" true (roundtrip config s)

(* --- explore_with ------------------------------------------------------ *)

(* [explore_with ~keep:f] must give [explore]'s graph with [f s] kept
   in place of each state [s]: the same counts, rows, edges, labels,
   expansion and cap.  Under [jobs > 1], [f] runs on the domain that
   expands the state's parent, and on the graph's values here, so it
   must not decode interned parts.  Every job count must keep what
   jobs 1 keeps, by id. *)
let test_explore_with_counter () =
  let f k = Printf.sprintf "k%d" k in
  List.iter
    (fun max_states ->
      let g1 = CE.explore ~jobs:1 ~max_states 0 in
      let k1 = CE.explore_with ~jobs:1 ~max_states ~keep:f 0 in
      let name jobs = Printf.sprintf "jobs %d, cap %d" jobs max_states in
      same_space (name 1) (ce_space { g1 with CE.states = Array.map f g1.CE.states }) (ce_space k1);
      List.iter
        (fun jobs ->
          same_space (name jobs) (ce_space k1)
            (ce_space (CE.explore_with ~jobs ~max_states ~keep:f 0)))
        [ 2; 3; 4 ])
    [ 1_000_000; 3 ]

let pe_space g = PE.(g.states, g.csr, g.labels, g.transition_count, g.expanded, g.capped)

let test_explore_with_path () =
  let f s =
    Format.asprintf "%a clean=%b settled=%b" Path_model.pp_state s (Path_model.clean s)
      (Path_model.all_settled s)
  in
  List.iter
    (fun (config, max_states) ->
      let unpack = Path_model.unpack config in
      let initial = Path_model.initial config in
      let name jobs =
        Printf.sprintf "%s, cap %d, jobs %d" (Path_model.config_name config) max_states jobs
      in
      let g1 = PE.explore ~jobs:1 ~max_states ~unpack initial in
      let k1 = PE.explore_with ~jobs:1 ~max_states ~unpack ~keep:f initial in
      same_space (name 1) (pe_space { g1 with PE.states = Array.map f g1.PE.states }) (pe_space k1);
      List.iter
        (fun jobs ->
          same_space (name jobs) (pe_space k1)
            (pe_space (PE.explore_with ~jobs ~max_states ~unpack ~keep:f initial)))
        [ 2; 3; 4 ])
    [
      (open_fl_open, 1_000_000);
      (open_fl_open, 500);
      (close_open_any, 1_000_000);
      (conf3 (), 2_000);
    ]

let test_kept_space_words () =
  (* An int kept per state and an immediate label per edge: what is
     left is the CSR and the two arrays, about 9.4 words per state
     here.  [explore]'s graph, which keeps the states, reads 60.5. *)
  let g =
    PE.explore_with ~jobs:1
      ~keep:(fun s -> if Path_model.clean s then 1 else 0)
      (Path_model.initial open_fl_fl_open)
  in
  let n = Array.length g.PE.states in
  check tint "states" 50_383 n;
  let per_state = float_of_int (Obj.reachable_words (Obj.repr g)) /. float_of_int n in
  if per_state > 16.0 then
    Alcotest.failf "the kept space holds %.1f words per state, more than 16" per_state

let test_star_too_wide () =
  (* [Check.run] keeps three bits per state and two per leg in one int,
     so a star of more legs is refused before anything is explored. *)
  let star parties =
    Path_model.conf_config
      ~parties:(List.init parties (fun _ -> Semantics.Open_end))
      ~chaos:0 ~modifies:0 ()
  in
  let widest = (Sys.int_size - 3) / 2 in
  let r = Check.run ~max_states:10 (star widest) in
  check tbool "the widest star runs" true r.Check.capped;
  match Check.run (star (widest + 1)) with
  | (_ : Check.report) -> Alcotest.fail "a star one leg too wide was explored"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "mc"
    [
      ( "explorer",
        [
          Alcotest.test_case "reachability" `Quick test_explorer_reachability;
          Alcotest.test_case "cap" `Quick test_explorer_cap;
          Alcotest.test_case "path_to" `Quick test_explorer_path_to;
          Alcotest.test_case "parallel counter graph" `Quick test_explorer_parallel_counter;
          Alcotest.test_case "a raising system raises at every job count" `Quick
            test_explorer_raises;
          Alcotest.test_case "explore_with keeps f of each state (counter, jobs 1-4)" `Quick
            test_explore_with_counter;
          Alcotest.test_case "explore_with keeps f of each state (path, jobs 1-4)" `Quick
            test_explore_with_path;
          Alcotest.test_case "a space kept as ints costs at most 16 words per state" `Quick
            test_kept_space_words;
          Alcotest.test_case "a star too wide for the predicate bits is refused" `Quick
            test_star_too_wide;
        ] );
      ( "scc",
        [
          Alcotest.test_case "line" `Quick test_scc_line;
          Alcotest.test_case "cycle" `Quick test_scc_cycle;
          Alcotest.test_case "self loop" `Quick test_scc_self_loop;
          Alcotest.test_case "no stack overflow" `Quick test_scc_big_line_no_overflow;
        ] );
      ( "csr",
        [
          Alcotest.test_case "shape" `Quick test_csr_shape;
          Alcotest.test_case "restrict" `Quick test_csr_restrict;
        ] );
      ( "temporal",
        [
          Alcotest.test_case "eventually always" `Quick test_eventually_always;
          Alcotest.test_case "always eventually" `Quick test_always_eventually;
          Alcotest.test_case "stabilize or recur" `Quick test_stabilize_or_recur;
        ] );
      ( "path models",
        [
          Alcotest.test_case "all six, no chaos" `Quick test_path_models_no_chaos;
          Alcotest.test_case "one flowlink" `Quick test_path_model_one_flowlink;
          Alcotest.test_case "flowlink blowup" `Quick test_flowlink_blowup_shape;
          Alcotest.test_case "standard configs" `Quick test_standard_configs_count;
          Alcotest.test_case "no counterexample when passing" `Quick
            test_passing_reports_have_no_counterexample;
          Alcotest.test_case "segment lemma (1 flowlink)" `Quick test_segment_lemma;
          Alcotest.test_case "segment lemma (2 flowlinks)" `Quick test_segment_two_flowlinks;
        ] );
      ( "network faults",
        [
          Alcotest.test_case "idempotent faults harmless" `Quick test_idempotent_faults_harmless;
          Alcotest.test_case "fault budget grows state space" `Quick
            test_fault_budget_grows_state_space;
          Alcotest.test_case "unrestricted dup violates" `Quick
            test_unrestricted_dup_finds_violation;
          Alcotest.test_case "capped runs report only what they checked" `Quick
            test_capped_reports;
          Alcotest.test_case "unrestricted loss violates" `Quick
            test_unrestricted_loss_finds_violation;
          Alcotest.test_case "unrestricted counterexamples are pinned" `Quick
            test_counterexamples_pinned;
        ] );
      ( "parallel determinism",
        [
          Alcotest.test_case "standard models, jobs 1 = jobs 4" `Quick
            test_parallel_determinism_standard;
          Alcotest.test_case "faulted models, jobs 1 = jobs 4" `Quick
            test_parallel_determinism_faults;
          Alcotest.test_case "violating model, jobs 1 = jobs 4" `Quick
            test_parallel_determinism_unsafe;
          Alcotest.test_case "segment model, jobs 1 = jobs 4" `Quick
            test_parallel_determinism_segment;
          Alcotest.test_case "3-party star, jobs 1 = jobs 4" `Quick
            test_parallel_determinism_star;
        ] );
      ( "star models",
        [ Alcotest.test_case "conf3 exact reachable size" `Quick test_star_exact_size ] );
      ( "packed codec",
        [
          QCheck_alcotest.to_alcotest prop_pack_roundtrip;
          QCheck_alcotest.to_alcotest prop_pack_roundtrip_star;
          QCheck_alcotest.to_alcotest prop_pack_roundtrip_unrestricted;
          Alcotest.test_case "intern keys distinguish states" `Quick
            test_pack_distinguishes_states;
          Alcotest.test_case "pack keys are pinned" `Quick test_pack_keys_pinned;
          Alcotest.test_case "oversized budgets fail loudly" `Quick test_oversized_budgets_fail;
          Alcotest.test_case "pack allocates only its key" `Quick test_pack_allocates_only_its_key;
          Alcotest.test_case "unpack allocates only the state" `Quick
            test_unpack_allocates_only_the_state;
          Alcotest.test_case "long keys grow the scratch" `Quick test_long_keys;
        ] );
    ]
