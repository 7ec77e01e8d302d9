(* Unit tests for mediactl.lint: each analyzer against inline sources,
   scope routing, and the allowlist attribute grammar.  The golden
   corpus under test/lint_fixtures locks full-report output; these
   tests pin the per-rule semantics. *)

module Lint = Mediactl_lint_core
open Lint

let lint ?(rel = "lib/runtime/fixture.ml") ?(has_mli = true) src =
  Driver.lint_source ~rel ~has_mli src

let rules fs = List.map (fun (f : Finding.t) -> Finding.rule_id f.Finding.rule) fs

let check_rules ~msg expected (findings, _allowed) =
  Alcotest.(check (list string)) msg expected (rules findings)

(* ------------------------------------------------------------------ *)
(* DSAN001                                                             *)

let dsan_flags_toplevel_ref () =
  check_rules ~msg:"racy Trace.seq pattern" [ "DSAN001" ]
    (lint "let seq = ref 0\nlet next () = incr seq; !seq\n")

let dsan_accepts_dls () =
  check_rules ~msg:"DLS init closure is per-domain" []
    (lint "let key = Domain.DLS.new_key (fun () -> ref 0)\n")

let dsan_accepts_atomic () =
  check_rules ~msg:"Atomic cell is domain-safe" [] (lint "let hits = Atomic.make 0\n")

let dsan_flags_atomic_of_array () =
  check_rules ~msg:"array inside Atomic.make is still plain mutable" [ "DSAN001" ]
    (lint "let cells = Atomic.make (Array.make 8 0)\n")

let dsan_flags_escaping_closure_state () =
  check_rules ~msg:"ref born at init, captured by closure" [ "DSAN001" ]
    (lint "let counter = let c = ref 0 in fun () -> incr c; !c\n")

let dsan_accepts_per_call_state () =
  check_rules ~msg:"ref born per call" [] (lint "let fresh () = ref 0\n")

let dsan_flags_mutable_record_literal () =
  check_rules ~msg:"literal of a record this file declares mutable" [ "DSAN001" ]
    (lint "type cell = { mutable v : int }\nlet shared = { v = 0 }\n")

let dsan_flags_array_literal () =
  check_rules ~msg:"toplevel array literal" [ "DSAN001" ] (lint "let tbl = [| 1; 2; 3 |]\n")

let dsan_flags_nested_module () =
  check_rules ~msg:"structure level includes nested modules" [ "DSAN001" ]
    (lint "module Pool = struct\n  let t = Hashtbl.create 16\nend\n")

let dsan_out_of_scope_outside_lib () =
  check_rules ~msg:"bin/ executables are out of DSAN scope" []
    (lint ~rel:"bin/tool.ml" "let seq = ref 0\n")

(* ------------------------------------------------------------------ *)
(* TOT001                                                              *)

let signal_match_wildcard =
  "let f (s : Signal.t) = match s with Signal.Close -> 1 | Signal.Closeack -> 2 | _ -> 0\n"

let tot_flags_wildcard () =
  check_rules ~msg:"wildcard over Signal.t"
    [ "TOT001" ]
    (lint ~rel:"lib/protocol/handler.ml" signal_match_wildcard)

let tot_accepts_enumeration () =
  check_rules ~msg:"full enumeration" []
    (lint ~rel:"lib/protocol/handler.ml"
       "let f s = match s with\n\
        | Signal.Open _ | Signal.Oack _ -> 1\n\
        | Signal.Close | Signal.Closeack -> 2\n\
        | Signal.Describe _ | Signal.Select _ -> 3\n")

let tot_accepts_variable_catch_all () =
  check_rules ~msg:"variable catch-all names and handles the value" []
    (lint ~rel:"lib/protocol/handler.ml"
       "let f s = match s with Signal.Close -> \"close\" | other -> Signal.name other\n")

let tot_accepts_equal_idiom () =
  check_rules ~msg:"enumerated first tuple component keeps the match total" []
    (lint ~rel:"lib/protocol/state.ml"
       "let equal a b = match a, b with\n\
        | Closed, Closed | Opening, Opening | Opened, Opened -> true\n\
        | (Closed | Opening | Opened | Flowing | Closing), _ -> false\n")

let tot_out_of_scope () =
  check_rules ~msg:"apps are out of totality scope" []
    (lint ~rel:"lib/apps/handler.ml" signal_match_wildcard)

let tot_pattern_allow () =
  let findings, allowed =
    lint ~rel:"lib/protocol/handler.ml"
      "let f (s : Signal.t) = match s with\n\
       | Signal.Close -> 1\n\
       | (_ [@lint.allow \"totality: fixture demonstrates a waived wildcard\"]) -> 0\n"
  in
  Alcotest.(check (list string)) "suppressed" [] (rules findings);
  Alcotest.(check int) "recorded as allowlisted" 1 (List.length allowed)

(* ------------------------------------------------------------------ *)
(* HYG001                                                              *)

let unguarded = "let f chan = Trace.emit (Trace.Meta_send { chan; box = \"b\" })\n"

let hyg_flags_unguarded () =
  check_rules ~msg:"unguarded emit" [ "HYG001" ] (lint ~rel:"lib/net/layer.ml" unguarded)

let hyg_accepts_guarded () =
  check_rules ~msg:"if-guarded emit" []
    (lint ~rel:"lib/net/layer.ml"
       "let f chan = if Trace.enabled () then Trace.emit (Trace.Meta_send { chan; box = \"b\" })\n")

let hyg_flags_unguarded_fast_emitter () =
  check_rules ~msg:"unguarded fast emitter" [ "HYG001" ]
    (lint ~rel:"lib/net/layer.ml" "let f chan = Trace.net ~chan Trace.Dropped\n")

let hyg_accepts_guarded_fast_emitter () =
  check_rules ~msg:"if-guarded fast emitter" []
    (lint ~rel:"lib/net/layer.ml"
       "let f chan = if Trace.enabled () then Trace.net ~chan Trace.Dropped\n")

let hyg_accepts_conjunction () =
  check_rules ~msg:"enabled () && p guard" []
    (lint ~rel:"lib/protocol/slot2.ml"
       "let f x changed = if Trace.enabled () && changed then Trace.emit x\n")

let hyg_accepts_when_guard () =
  check_rules ~msg:"when-guard" []
    (lint ~rel:"lib/sim/kernel.ml"
       "let f = function Some e when Trace.enabled () -> Trace.emit e | Some _ | None -> ()\n")

let hyg_flags_first_class_emit () =
  check_rules ~msg:"emit escaping as a value" [ "HYG001" ]
    (lint ~rel:"lib/runtime/loop.ml" "let f evs = List.iter Trace.emit evs\n")

let hyg_out_of_scope () =
  check_rules ~msg:"lib/obs is the implementation, exempt" []
    (lint ~rel:"lib/obs/export.ml" unguarded)

let hyg_else_branch_not_guarded () =
  check_rules ~msg:"else branch of an enabled-check is not dominated" [ "HYG001" ]
    (lint ~rel:"lib/net/layer.ml"
       "let f x = if Trace.enabled () then () else Trace.emit x\n")

(* ------------------------------------------------------------------ *)
(* MARS001 / IFACE001 / allowlist grammar                              *)

let mars_flags_use () =
  check_rules ~msg:"Marshal use" [ "MARS001" ]
    (lint ~rel:"lib/mc/keys.ml" "let key s = Marshal.to_string s []\n")

let iface_flags_missing_mli () =
  check_rules ~msg:"lib module without interface" [ "IFACE001" ]
    (lint ~has_mli:false "let x = 1\n")

let iface_ignores_executables () =
  check_rules ~msg:"bin modules need no mli" []
    (lint ~rel:"bin/tool.ml" ~has_mli:false "let x = 1\n")

let allow_requires_justification () =
  check_rules ~msg:"bare tag is malformed and suppresses nothing"
    [ "DSAN001"; "LINT001" ]
    (lint "let t = Hashtbl.create 8 [@@lint.allow \"race\"]\n")

let allow_records_justification () =
  let findings, allowed =
    lint "let t = Hashtbl.create 8 [@@lint.allow \"race: guarded by the registry mutex\"]\n"
  in
  Alcotest.(check (list string)) "suppressed" [] (rules findings);
  match allowed with
  | [ a ] ->
    Alcotest.(check string) "justification kept" "guarded by the registry mutex"
      a.Finding.justification
  | l -> Alcotest.failf "expected one allowlisted entry, got %d" (List.length l)

let allow_unused_is_warning () =
  let findings, _ = lint "let limit = 512 [@@lint.allow \"race: stale waiver\"]\n" in
  Alcotest.(check (list string)) "LINT002" [ "LINT002" ] (rules findings);
  match findings with
  | [ f ] ->
    Alcotest.(check string) "warning severity" "warning"
      (Finding.severity_name (Finding.severity f))
  | _ -> Alcotest.fail "expected exactly one finding"

let file_scope_allow () =
  check_rules ~msg:"floating attribute waives the whole file" []
    (lint
       "[@@@lint.allow \"race: fixture file, single-domain test harness only\"]\n\
        let a = ref 0\n\
        let b = Hashtbl.create 4\n")

let parse_error_is_finding () =
  check_rules ~msg:"unparseable source" [ "PARSE001" ] (lint "let let let\n")

(* ------------------------------------------------------------------ *)
(* FMT001                                                              *)

let fmt_flags_tab () = check_rules ~msg:"tab indentation" [ "FMT001" ] (lint "let x =\n\t0\n")
let fmt_flags_trailing_ws () = check_rules ~msg:"trailing space" [ "FMT001" ] (lint "let x = 0 \n")

let fmt_flags_crlf () =
  check_rules ~msg:"CRLF line ending" [ "FMT001" ] (lint "let x = 0\r\nlet y = 1\n")

let fmt_flags_missing_final_newline () =
  check_rules ~msg:"no final newline" [ "FMT001" ] (lint "let x = 0")

let fmt_accepts_clean () = check_rules ~msg:"clean file" [] (lint "let x = 0\n\nlet y = 1\n")

let fmt_runs_on_unparseable_source () =
  check_rules ~msg:"textual rule still applies when parsing fails" [ "FMT001"; "PARSE001" ]
    (lint "let let let \n")

let fmt_positions () =
  let findings, _ = lint "let x = 0  \n" in
  match findings with
  | [ f ] ->
    Alcotest.(check (pair int int)) "line and column of the first trailing blank" (1, 10)
      (f.Finding.line, f.Finding.col)
  | _ -> Alcotest.fail "expected exactly one finding"

(* ------------------------------------------------------------------ *)
(* ALLOC001 and the callgraph                                          *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.equal (String.sub hay i ln) needle || go (i + 1)) in
  ln = 0 || go 0

let alloc_flags_closure () =
  check_rules ~msg:"anonymous closure in argument position" [ "ALLOC001" ]
    (lint ~rel:"lib/sim/hot.ml" "let hot g = g (fun a b -> a + b)\n[@@lint.hotpath]\n")

let alloc_flags_ref () =
  check_rules ~msg:"ref cell" [ "ALLOC001" ]
    (lint ~rel:"lib/sim/hot.ml" "let hot () = ref 0\n[@@lint.hotpath]\n")

let alloc_flags_tuple () =
  check_rules ~msg:"result pair" [ "ALLOC001" ]
    (lint ~rel:"lib/sim/hot.ml" "let hot a b = (a, b)\n[@@lint.hotpath]\n")

let alloc_flags_list_literal () =
  check_rules ~msg:"one cons per list element" [ "ALLOC001"; "ALLOC001" ]
    (lint ~rel:"lib/sim/hot.ml" "let hot a = [ a; a ]\n[@@lint.hotpath]\n")

let alloc_flags_string_concat () =
  check_rules ~msg:"(^) allocates" [ "ALLOC001" ]
    (lint ~rel:"lib/sim/hot.ml" "let hot a b = a ^ b\n[@@lint.hotpath]\n")

let alloc_flags_partial_application () =
  check_rules ~msg:"under-applied intra-repo function" [ "ALLOC001" ]
    (lint ~rel:"lib/sim/hot.ml"
       "let add3 a b c = a + b + c\nlet hot x = ignore (add3 x 1)\n[@@lint.hotpath]\n")

let alloc_flags_poly_compare () =
  check_rules ~msg:"polymorphic min boxes floats" [ "ALLOC001" ]
    (lint ~rel:"lib/sim/hot.ml" "let hot (a : float) (b : float) = min a b\n[@@lint.hotpath]\n")

let alloc_flags_poly_lookup () =
  check_rules ~msg:"List.mem_assoc compares keys polymorphically" [ "ALLOC001" ]
    (lint ~rel:"lib/sim/hot.ml" "let hot k l = List.mem_assoc k l\n[@@lint.hotpath]\n")

let alloc_flags_curated_call () =
  check_rules ~msg:"Hashtbl.find_opt allocates an option per hit" [ "ALLOC001" ]
    (lint ~rel:"lib/sim/hot.ml" "let hot t k = Hashtbl.find_opt t k\n[@@lint.hotpath]\n")

let alloc_accepts_clean_loop () =
  check_rules ~msg:"accumulator recursion allocates nothing" []
    (lint ~rel:"lib/sim/hot.ml"
       "let rec hot a = function [] -> a | x :: tl -> hot (a + x) tl\n[@@lint.hotpath]\n")

let alloc_cold_code_exempt () =
  check_rules ~msg:"no root, no findings" []
    (lint ~rel:"lib/sim/hot.ml" "let cold xs = List.map (fun x -> x * 2) xs\n")

let alloc_closure_parameter_is_boundary () =
  check_rules ~msg:"dispatch received as a parameter is not followed" []
    (lint ~rel:"lib/sim/hot.ml"
       "let hot f x = f x\n[@@lint.hotpath]\n\nlet cold () = Array.make 4 0\n")

let alloc_raising_call_exempt () =
  check_rules ~msg:"allocating to die is fine" []
    (lint ~rel:"lib/sim/hot.ml"
       "let hot x = if x < 0 then failwith (Printf.sprintf \"bad %d\" x) else x\n\
        [@@lint.hotpath]\n")

let alloc_multi_param_spine_not_flagged () =
  check_rules ~msg:"the root's own parameter spine is not an allocation site" []
    (lint ~rel:"lib/sim/hot.ml" "let hot = fun a b -> a + b\n[@@lint.hotpath]\n")

let alloc_severity_is_error () =
  let findings, _ = lint ~rel:"lib/sim/hot.ml" "let hot () = ref 0\n[@@lint.hotpath]\n" in
  match findings with
  | [ f ] ->
    Alcotest.(check string) "error severity" "error"
      (Finding.severity_name (Finding.severity f))
  | _ -> Alcotest.fail "expected exactly one finding"

(* The acceptance regression: a function already reachable from a hot
   root gains a closure — the lint must catch the edit. *)
let alloc_regression_closure_in_callee () =
  let clean = "let helper xs = ignore xs\nlet hot xs = helper xs\n[@@lint.hotpath]\n" in
  check_rules ~msg:"reachable helper, allocation-free" [] (lint ~rel:"lib/sim/hot.ml" clean);
  let seeded =
    "let helper xs = List.iter (fun x -> ignore x) xs\nlet hot xs = helper xs\n[@@lint.hotpath]\n"
  in
  let findings, _ = lint ~rel:"lib/sim/hot.ml" seeded in
  match findings with
  | [ f ] ->
    Alcotest.(check string) "ALLOC001" "ALLOC001" (Finding.rule_id f.Finding.rule);
    Alcotest.(check bool) "chain names the hot root" true
      (contains f.Finding.message "Hot.helper <- Hot.hot")
  | l -> Alcotest.failf "expected one finding, got %d" (List.length l)

let alloc_cross_module_chain () =
  let findings, _ =
    Driver.lint_sources
      [
        ("lib/sim/a.ml", true, "let go n = Array.make n 0\n");
        ("lib/sim/b.ml", true, "let hot n = A.go n\n[@@lint.hotpath]\n");
      ]
  in
  match findings with
  | [ f ] ->
    Alcotest.(check string) "finding lands in the callee's file" "lib/sim/a.ml" f.Finding.file;
    Alcotest.(check bool) "chain crosses the unit boundary" true
      (contains f.Finding.message "A.go <- B.hot")
  | l -> Alcotest.failf "expected one cross-module finding, got %d" (List.length l)

let hotpath_payload_is_malformed () =
  check_rules ~msg:"[@@lint.hotpath] takes no payload" [ "LINT001" ]
    (lint ~rel:"lib/sim/hot.ml" "let hot () = 1 [@@lint.hotpath \"why\"]\n")

let hotpath_on_value_is_malformed () =
  check_rules ~msg:"a constant roots nothing" [ "LINT001" ]
    (lint ~rel:"lib/sim/hot.ml" "let limit = 42 [@@lint.hotpath]\n")

(* ------------------------------------------------------------------ *)
(* Waiver grammar edge cases                                           *)

let waiver_multi_rule_tuple () =
  let findings, allowed =
    lint ~rel:"lib/sim/hot.ml"
      "[@@@lint.allow (\"race: fixture table, harness is single-domain\", \"alloc: fixture \
       ref, measured elsewhere\")]\n\n\
       let t = Hashtbl.create 8\n\n\
       let hot () = ref 0\n\
       [@@lint.hotpath]\n"
  in
  Alcotest.(check (list string)) "one attribute suppresses two rules" [] (rules findings);
  Alcotest.(check int) "both waivers recorded" 2 (List.length allowed)

let waiver_tuple_partially_used () =
  let findings, allowed =
    lint ~rel:"lib/sim/hot.ml"
      "let hot () = (ref 0 [@lint.allow (\"alloc: fixture ref\", \"race: never fires \
       here\")])\n\
       [@@lint.hotpath]\n"
  in
  Alcotest.(check (list string)) "only the dead tag warns" [ "LINT002" ] (rules findings);
  Alcotest.(check int) "the live tag is allowlisted" 1 (List.length allowed)

let waiver_duplicate_tag_is_malformed () =
  check_rules ~msg:"same rule twice in one attribute" [ "LINT001" ]
    (lint ~rel:"lib/sim/hot.ml"
       "let x = (1, 2) [@@lint.allow (\"alloc: once\", \"alloc: twice\")]\n")

let waiver_stale_after_fix () =
  check_rules ~msg:"waiver outlives the allocation it excused" [ "LINT002" ]
    (lint ~rel:"lib/sim/hot.ml"
       "let hot () = 1 + 1\n[@@lint.hotpath] [@@lint.allow \"alloc: stale — the ref is gone\"]\n")

let waiver_on_root_covers_local_helpers () =
  let findings, allowed =
    lint ~rel:"lib/sim/hot.ml"
      "let hot () =\n\
      \  let local () = ref 0 in\n\
      \  local ()\n\
       [@@lint.hotpath] [@@lint.allow \"alloc: fixture — the enclosing waiver covers the \
       local helper\"]\n"
  in
  Alcotest.(check (list string)) "suppressed through the lexical chain" [] (rules findings);
  Alcotest.(check int) "closure and ref both allowlisted" 2 (List.length allowed)

let waiver_on_root_does_not_cover_callees () =
  check_rules ~msg:"a binding waiver stops at the call boundary" [ "ALLOC001"; "LINT002" ]
    (lint ~rel:"lib/sim/hot.ml"
       "let helper () = ref 0\n\n\
        let hot () = helper ()\n\
        [@@lint.hotpath] [@@lint.allow \"alloc: only this binding's own body\"]\n")

(* ------------------------------------------------------------------ *)
(* SARIF                                                               *)

let sarif_shape () =
  let findings, allowed =
    lint ~rel:"lib/sim/hot.ml"
      "let seq = ref 0\n\nlet hot () = (ref 1 [@lint.allow \"alloc: fixture ref\"])\n\
       [@@lint.hotpath]\n"
  in
  let report = { Driver.root = "lint-test"; files = 1; findings; allowed } in
  let s = Driver.to_sarif report in
  let has msg needle = Alcotest.(check bool) msg true (contains s needle) in
  has "SARIF version" "\"version\":\"2.1.0\"";
  has "schema pinned" "\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\"";
  has "driver name" "\"name\":\"mediactl_lint\"";
  has "rule metadata carries ALLOC001" "{\"id\":\"ALLOC001\"";
  has "the DSAN finding is an error result" "{\"ruleId\":\"DSAN001\",\"level\":\"error\"";
  has "the waiver is a suppressed note"
    "\"suppressions\":[{\"kind\":\"inSource\",\"justification\":\"fixture ref\"}]";
  has "locations are SRCROOT-relative" "\"uriBaseId\":\"%SRCROOT%\""

let sarif_does_not_change_json () =
  let findings, allowed = lint ~rel:"lib/sim/hot.ml" "let seq = ref 0\n" in
  let report = { Driver.root = "lint-test"; files = 1; findings; allowed } in
  let before = Driver.to_json report in
  ignore (Driver.to_sarif report);
  Alcotest.(check string) "to_json is byte-stable alongside to_sarif" before
    (Driver.to_json report)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "lint"
    [
      ( "dsan",
        [
          Alcotest.test_case "flags toplevel ref" `Quick dsan_flags_toplevel_ref;
          Alcotest.test_case "accepts DLS" `Quick dsan_accepts_dls;
          Alcotest.test_case "accepts Atomic" `Quick dsan_accepts_atomic;
          Alcotest.test_case "flags array inside Atomic.make" `Quick dsan_flags_atomic_of_array;
          Alcotest.test_case "flags closure-captured init state" `Quick
            dsan_flags_escaping_closure_state;
          Alcotest.test_case "accepts per-call state" `Quick dsan_accepts_per_call_state;
          Alcotest.test_case "flags mutable record literal" `Quick
            dsan_flags_mutable_record_literal;
          Alcotest.test_case "flags array literal" `Quick dsan_flags_array_literal;
          Alcotest.test_case "flags nested module state" `Quick dsan_flags_nested_module;
          Alcotest.test_case "out of scope outside lib/" `Quick dsan_out_of_scope_outside_lib;
        ] );
      ( "totality",
        [
          Alcotest.test_case "flags wildcard" `Quick tot_flags_wildcard;
          Alcotest.test_case "accepts enumeration" `Quick tot_accepts_enumeration;
          Alcotest.test_case "accepts variable catch-all" `Quick tot_accepts_variable_catch_all;
          Alcotest.test_case "accepts the equal idiom" `Quick tot_accepts_equal_idiom;
          Alcotest.test_case "out of scope in apps" `Quick tot_out_of_scope;
          Alcotest.test_case "pattern-level waiver" `Quick tot_pattern_allow;
        ] );
      ( "hygiene",
        [
          Alcotest.test_case "flags unguarded emit" `Quick hyg_flags_unguarded;
          Alcotest.test_case "accepts if-guard" `Quick hyg_accepts_guarded;
          Alcotest.test_case "flags unguarded fast emitter" `Quick
            hyg_flags_unguarded_fast_emitter;
          Alcotest.test_case "accepts guarded fast emitter" `Quick
            hyg_accepts_guarded_fast_emitter;
          Alcotest.test_case "accepts conjunction guard" `Quick hyg_accepts_conjunction;
          Alcotest.test_case "accepts when-guard" `Quick hyg_accepts_when_guard;
          Alcotest.test_case "flags first-class emit" `Quick hyg_flags_first_class_emit;
          Alcotest.test_case "obs implementation exempt" `Quick hyg_out_of_scope;
          Alcotest.test_case "else branch not dominated" `Quick hyg_else_branch_not_guarded;
        ] );
      ( "rules",
        [
          Alcotest.test_case "marshal flagged" `Quick mars_flags_use;
          Alcotest.test_case "missing mli flagged" `Quick iface_flags_missing_mli;
          Alcotest.test_case "executables exempt from iface" `Quick iface_ignores_executables;
          Alcotest.test_case "allow needs justification" `Quick allow_requires_justification;
          Alcotest.test_case "allow keeps justification" `Quick allow_records_justification;
          Alcotest.test_case "unused allow warns" `Quick allow_unused_is_warning;
          Alcotest.test_case "file-scope allow" `Quick file_scope_allow;
          Alcotest.test_case "parse error is a finding" `Quick parse_error_is_finding;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "flags closure" `Quick alloc_flags_closure;
          Alcotest.test_case "flags ref" `Quick alloc_flags_ref;
          Alcotest.test_case "flags tuple" `Quick alloc_flags_tuple;
          Alcotest.test_case "flags list literal" `Quick alloc_flags_list_literal;
          Alcotest.test_case "flags string concat" `Quick alloc_flags_string_concat;
          Alcotest.test_case "flags partial application" `Quick alloc_flags_partial_application;
          Alcotest.test_case "flags polymorphic compare" `Quick alloc_flags_poly_compare;
          Alcotest.test_case "flags polymorphic key lookup" `Quick alloc_flags_poly_lookup;
          Alcotest.test_case "flags curated allocating call" `Quick alloc_flags_curated_call;
          Alcotest.test_case "accepts clean loop" `Quick alloc_accepts_clean_loop;
          Alcotest.test_case "cold code exempt" `Quick alloc_cold_code_exempt;
          Alcotest.test_case "closure parameter is the boundary" `Quick
            alloc_closure_parameter_is_boundary;
          Alcotest.test_case "raising calls exempt" `Quick alloc_raising_call_exempt;
          Alcotest.test_case "root parameter spine not flagged" `Quick
            alloc_multi_param_spine_not_flagged;
          Alcotest.test_case "error severity" `Quick alloc_severity_is_error;
          Alcotest.test_case "regression: closure in reachable callee" `Quick
            alloc_regression_closure_in_callee;
          Alcotest.test_case "cross-module chain" `Quick alloc_cross_module_chain;
          Alcotest.test_case "hotpath payload malformed" `Quick hotpath_payload_is_malformed;
          Alcotest.test_case "hotpath on value malformed" `Quick hotpath_on_value_is_malformed;
        ] );
      ( "waivers",
        [
          Alcotest.test_case "multi-rule tuple attribute" `Quick waiver_multi_rule_tuple;
          Alcotest.test_case "partially-used tuple warns once" `Quick waiver_tuple_partially_used;
          Alcotest.test_case "duplicate tag malformed" `Quick waiver_duplicate_tag_is_malformed;
          Alcotest.test_case "stale waiver warns after fix" `Quick waiver_stale_after_fix;
          Alcotest.test_case "root waiver covers local helpers" `Quick
            waiver_on_root_covers_local_helpers;
          Alcotest.test_case "root waiver stops at call boundary" `Quick
            waiver_on_root_does_not_cover_callees;
        ] );
      ( "sarif",
        [
          Alcotest.test_case "report shape" `Quick sarif_shape;
          Alcotest.test_case "json stays byte-stable" `Quick sarif_does_not_change_json;
        ] );
      ( "fmt",
        [
          Alcotest.test_case "flags tab" `Quick fmt_flags_tab;
          Alcotest.test_case "flags trailing whitespace" `Quick fmt_flags_trailing_ws;
          Alcotest.test_case "flags CRLF" `Quick fmt_flags_crlf;
          Alcotest.test_case "flags missing final newline" `Quick fmt_flags_missing_final_newline;
          Alcotest.test_case "accepts clean source" `Quick fmt_accepts_clean;
          Alcotest.test_case "runs before the parser" `Quick fmt_runs_on_unparseable_source;
          Alcotest.test_case "reports line and column" `Quick fmt_positions;
        ] );
    ]
