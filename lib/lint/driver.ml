(* The driver: file discovery, rule scoping, parsing, and report
   assembly.  Paths are always relative to [root] with '/' separators;
   scoping is by path prefix, so a fixture corpus that mirrors the
   repo layout (test/lint_fixtures/lib/...) exercises the same scope
   rules when linted with its own [--root]. *)

type rule_set = {
  dsan : bool;
  totality : bool;
  hygiene : bool;
  iface : bool;
  marshal : bool;
  fmt : bool;
  alloc : bool;
}

let all_rules =
  {
    dsan = true;
    totality = true;
    hygiene = true;
    iface = true;
    marshal = true;
    fmt = true;
    alloc = true;
  }

let rule_set_of_names names =
  let has n = List.mem n names in
  {
    dsan = has "dsan";
    totality = has "totality";
    hygiene = has "hygiene";
    iface = has "iface";
    marshal = has "marshal";
    fmt = has "fmt";
    alloc = has "alloc";
  }

(* ------------------------------------------------------------------ *)
(* Scope: which rules look at which files                              *)

let starts_with prefix s =
  String.length s >= String.length prefix && String.equal (String.sub s 0 (String.length prefix)) prefix

let dsan_scope rel = starts_with "lib/" rel

let totality_scope rel =
  starts_with "lib/protocol/" rel || starts_with "lib/core/" rel
  || starts_with "lib/mc/" rel
  || starts_with "lib/daemon/" rel
  || String.equal rel "lib/obs/monitor.ml"

(* The hot-path set of the tracing budget (E11): the simulator kernel,
   the runtime, the network layers, the protocol engine, the signaling
   channel and core goal objects that instrument slot transitions, and
   the daemon, whose synthetic bridge events ride the live event loop.
   lib/obs itself is the implementation and exempt. *)
let hygiene_scope rel =
  List.exists
    (fun p -> starts_with p rel)
    [
      "lib/sim/"; "lib/runtime/"; "lib/net/"; "lib/protocol/"; "lib/signaling/"; "lib/core/";
      "lib/daemon/"; "lib/apps/";
    ]

let iface_scope rel = starts_with "lib/" rel

(* ------------------------------------------------------------------ *)
(* File discovery                                                      *)

let excluded_dirs = [ "_build"; "_opam"; ".git"; "test/lint_fixtures" ]

let scan_files root =
  let acc = ref [] in
  let rec walk rel_dir =
    let abs = if rel_dir = "" then root else Filename.concat root rel_dir in
    let entries = try Sys.readdir abs with Sys_error _ -> [||] in
    Array.sort String.compare entries;
    Array.iter
      (fun name ->
        let rel = if rel_dir = "" then name else rel_dir ^ "/" ^ name in
        if (not (List.mem rel excluded_dirs)) && name.[0] <> '.' && name.[0] <> '_' then
          let abs_entry = Filename.concat root rel in
          if Sys.is_directory abs_entry then walk rel
          else if Filename.check_suffix name ".ml" then acc := rel :: !acc)
      entries
  in
  walk "";
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Per-file analysis                                                   *)

let parse_structure ~path source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  Parse.implementation lexbuf

(* One parsed unit mid-analysis: its Ctx lives across both the
   per-file pass and the interprocedural pass, so a waiver used only
   by ALLOC001 is not misreported as LINT002 by an earlier close. *)
type unit_state = {
  u_rel : string;
  u_fmt : Finding.t list;
  u_parsed : (Parsetree.structure * Ctx.t, Finding.t) result;
}

let parse_finding ~rel exn =
  let line, msg =
    match Location.error_of_exn exn with
    | Some (`Ok e) ->
      let loc = e.Location.main.Location.loc in
      (loc.Location.loc_start.Lexing.pos_lnum, Format.asprintf "%t" e.Location.main.Location.txt)
    | _ -> (1, Printexc.to_string exn)
  in
  Finding.make ~rule:Finding.Parse_error ~file:rel ~line ~col:0 msg

(* Lint a set of compilation units as one tree: per-file rules first,
   then the interprocedural ALLOC001 pass over a callgraph built from
   every unit that parsed.  Findings come back concatenated in unit
   order (each unit's sorted). *)
let lint_units ?(rules = all_rules) units =
  let states =
    List.map
      (fun (rel, has_mli, source) ->
        (* FMT001 is textual: it runs before parsing and also covers
           files the parser rejects. *)
        let fmt_findings = if rules.fmt then Fmt_rule.check ~rel source else [] in
        match parse_structure ~path:rel source with
        | exception exn -> { u_rel = rel; u_fmt = fmt_findings; u_parsed = Error (parse_finding ~rel exn) }
        | structure ->
          let ctx = Ctx.create ~file:rel structure in
          if rules.dsan && dsan_scope rel then Dsan.check ctx structure;
          if rules.totality && totality_scope rel then Totality.check ctx structure;
          if rules.hygiene && hygiene_scope rel then Hygiene.check ctx structure;
          if rules.marshal then Marshal_rule.check ctx structure;
          if rules.iface && iface_scope rel && not has_mli then begin
            let pos = { Lexing.pos_fname = rel; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 } in
            let line1 = { Location.loc_start = pos; loc_end = pos; loc_ghost = true } in
            Ctx.flag ctx Finding.Iface ~attrs:[] line1
              (Printf.sprintf "missing interface: every lib/ module exports an .mli (add %s)"
                 (Filename.remove_extension (Filename.basename rel) ^ ".mli"))
          end;
          { u_rel = rel; u_fmt = fmt_findings; u_parsed = Ok (structure, ctx) })
      units
  in
  if rules.alloc then begin
    let graph =
      Callgraph.build
        (List.filter_map
           (fun u -> match u.u_parsed with Ok (s, _) -> Some (u.u_rel, s) | Error _ -> None)
           states)
    in
    let reach = Callgraph.reach graph in
    List.iter
      (fun u ->
        match u.u_parsed with Ok (_, ctx) -> Alloc.check ctx ~graph ~reach | Error _ -> ())
      states
  end;
  List.fold_left
    (fun (fs, al) u ->
      match u.u_parsed with
      | Error parse_f -> (fs @ u.u_fmt @ [ parse_f ], al)
      | Ok (_, ctx) ->
        let findings, allowed = Ctx.close ctx in
        (fs @ u.u_fmt @ findings, al @ allowed))
    ([], []) states

let lint_sources ?(rules = all_rules) units = lint_units ~rules units

(* Lint one compilation unit given its source text.  [rel] drives
   scoping; [has_mli] feeds IFACE001 (pass [true] outside iface
   scope).  ALLOC001 sees a single-file callgraph. *)
let lint_source ?(rules = all_rules) ~rel ~has_mli source =
  lint_units ~rules [ (rel, has_mli, source) ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file ?(rules = all_rules) ~root rel =
  let abs = Filename.concat root rel in
  let has_mli = Sys.file_exists (Filename.remove_extension abs ^ ".mli") in
  lint_source ~rules ~rel ~has_mli (read_file abs)

(* ------------------------------------------------------------------ *)
(* Report                                                              *)

type report = {
  root : string;
  files : int;
  findings : Finding.t list;
  allowed : Finding.allowed list;
}

let errors r = List.filter (fun f -> Finding.severity f = Finding.Error) r.findings
let warnings r = List.filter (fun f -> Finding.severity f = Finding.Warning) r.findings
let clean r = errors r = []

let run ?(rules = all_rules) ~root () =
  let files = scan_files root in
  let units =
    List.map
      (fun rel ->
        let abs = Filename.concat root rel in
        let has_mli = Sys.file_exists (Filename.remove_extension abs ^ ".mli") in
        (rel, has_mli, read_file abs))
      files
  in
  let findings, allowed = lint_units ~rules units in
  {
    root;
    files = List.length files;
    findings = List.sort Finding.compare findings;
    allowed;
  }

let by_rule findings =
  List.fold_left
    (fun acc (f : Finding.t) ->
      let id = Finding.rule_id f.Finding.rule in
      match List.assoc_opt id acc with
      | Some n -> (id, n + 1) :: List.remove_assoc id acc
      | None -> (id, 1) :: acc)
    [] findings
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp_text ppf r =
  List.iter (fun f -> Format.fprintf ppf "%a@." Finding.pp f) r.findings;
  let e = List.length (errors r) and w = List.length (warnings r) in
  Format.fprintf ppf "lint: %d files, %d finding(s) (%d error(s), %d warning(s)), %d allowlisted@."
    r.files
    (List.length r.findings)
    e w
    (List.length r.allowed);
  if e > 0 then
    Format.fprintf ppf "by rule: %s@."
      (String.concat ", " (List.map (fun (id, n) -> Printf.sprintf "%s=%d" id n) (by_rule r.findings)))

let to_json r =
  let fields =
    [
      Printf.sprintf "\"root\":%s" (Finding.str r.root);
      Printf.sprintf "\"files\":%d" r.files;
      Printf.sprintf "\"findings\":[%s]"
        (String.concat "," (List.map Finding.to_json r.findings));
      Printf.sprintf "\"allowlisted\":[%s]"
        (String.concat "," (List.map Finding.allowed_to_json r.allowed));
      Printf.sprintf "\"summary\":{%s}"
        (String.concat ","
           [
             Printf.sprintf "\"errors\":%d" (List.length (errors r));
             Printf.sprintf "\"warnings\":%d" (List.length (warnings r));
             Printf.sprintf "\"allowlisted\":%d" (List.length r.allowed);
             Printf.sprintf "\"by_rule\":{%s}"
               (String.concat ","
                  (List.map
                     (fun (id, n) -> Printf.sprintf "%s:%d" (Finding.str id) n)
                     (by_rule r.findings)));
           ]);
    ]
  in
  "{" ^ String.concat "," fields ^ "}"

(* ------------------------------------------------------------------ *)
(* SARIF 2.1.0 (GitHub code scanning).  One run, one result per
   finding; allowlisted suppressions ride along as suppressed results
   so the waiver justifications are auditable from the annotation UI.
   [to_json] above stays byte-identical — SARIF is a separate
   serialization, not a reshuffle of the JSON report. *)

let to_sarif r =
  let str = Finding.str in
  let level_of = function Finding.Error -> "error" | Finding.Warning -> "warning" in
  let rule_json rule =
    Printf.sprintf
      "{\"id\":%s,\"shortDescription\":{\"text\":%s},\"defaultConfiguration\":{\"level\":%s}}"
      (str (Finding.rule_id rule))
      (str (Finding.rule_doc rule))
      (str (level_of (Finding.severity_of_rule rule)))
  in
  let location ~file ~line ~col =
    Printf.sprintf
      "{\"physicalLocation\":{\"artifactLocation\":{\"uri\":%s,\"uriBaseId\":\"%%SRCROOT%%\"},\"region\":{\"startLine\":%d,\"startColumn\":%d}}}"
      (str file) (max 1 line) (col + 1)
  in
  let result_json (f : Finding.t) =
    Printf.sprintf "{\"ruleId\":%s,\"level\":%s,\"message\":{\"text\":%s},\"locations\":[%s]}"
      (str (Finding.rule_id f.Finding.rule))
      (str (level_of (Finding.severity f)))
      (str f.Finding.message)
      (location ~file:f.Finding.file ~line:f.Finding.line ~col:f.Finding.col)
  in
  let suppressed_json (a : Finding.allowed) =
    Printf.sprintf
      "{\"ruleId\":%s,\"level\":\"note\",\"message\":{\"text\":%s},\"locations\":[%s],\"suppressions\":[{\"kind\":\"inSource\",\"justification\":%s}]}"
      (str (Finding.rule_id a.Finding.a_rule))
      (str (Printf.sprintf "allowlisted %s" (Finding.rule_id a.Finding.a_rule)))
      (location ~file:a.Finding.a_file ~line:a.Finding.a_line ~col:0)
      (str a.Finding.justification)
  in
  let results =
    List.map result_json r.findings @ List.map suppressed_json r.allowed
  in
  String.concat ""
    [
      "{\"version\":\"2.1.0\",";
      "\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",";
      "\"runs\":[{\"tool\":{\"driver\":{\"name\":\"mediactl_lint\",";
      Printf.sprintf "\"rules\":[%s]}}," (String.concat "," (List.map rule_json Finding.all_rules));
      Printf.sprintf "\"results\":[%s]}]}" (String.concat "," results);
    ]
