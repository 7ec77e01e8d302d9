(* The mediactl benchmark suite: one executable that runs any of five
   workloads over the public library API, prints every end-to-end
   metric with its unit, checks that the outputs are correct, and
   exits non-zero when a check fails.

     dune exec bench/suite/main.exe -- all
     dune exec bench/suite/main.exe -- fleet-mixed --seed 3 --seconds 12
     dune exec bench/suite/main.exe -- churn-10k --trace spans.json
     dune exec bench/suite/main.exe -- --smoke

   [--trace FILE] adds a traced pass after the untraced measurement:
   spans around the calls into each layer, kept in memory and written
   to FILE at the end, reduced to the per-layer metrics and a ledger
   that reconciles the layers' self times against the wall.  [--json]
   ends a workload's output with its full record and the one-line
   result the repository's BENCHMARK.json defines.  Several workloads
   run one after another, each in a fresh process.  [--smoke] runs
   every workload at a tiny size, traced, with every correctness
   check. *)

let workloads =
  [ W_fleet.workload; W_churn.workload; W_check.seq; W_check.par; W_daemon.workload ]

type opts = {
  mutable names : string list;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : string option;
  mutable json : bool;
  mutable smoke : bool;
  mutable work_dir : string;
  mutable setup_probe : string option;
  mutable daemon_child : string option;
}

let usage () =
  prerr_endline
    "usage: main.exe [--seed N] [--seconds S] [--trace FILE] [--json] [--work-dir DIR] (all | \
     WORKLOAD...)\n\
    \       main.exe --smoke\n\
     workloads:";
  List.iter (fun (w : Harness.workload) -> prerr_endline ("  " ^ w.Harness.name)) workloads;
  exit 2

let parse argv =
  let o =
    {
      names = [];
      seed = 1;
      seconds = 12.0;
      trace = None;
      json = false;
      smoke = false;
      work_dir = ".bench_build/suite";
      setup_probe = None;
      daemon_child = None;
    }
  in
  let int s = match int_of_string_opt s with Some v -> v | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--seed" :: v :: rest ->
      o.seed <- int v;
      go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s >= 0.0 -> o.seconds <- s
      | Some _ | None -> usage ());
      go rest
    | "--trace" :: v :: rest ->
      o.trace <- Some v;
      go rest
    | "--json" :: rest ->
      o.json <- true;
      go rest
    | "--smoke" :: rest ->
      o.smoke <- true;
      go rest
    | "--work-dir" :: v :: rest ->
      o.work_dir <- v;
      go rest
    | "--setup-probe" :: v :: rest ->
      o.setup_probe <- Some v;
      go rest
    | "--daemon-child" :: path :: rest ->
      o.daemon_child <- Some path;
      go rest
    | "all" :: rest ->
      o.names <- o.names @ List.map (fun (w : Harness.workload) -> w.Harness.name) workloads;
      go rest
    | name :: rest when String.length name > 0 && name.[0] <> '-' ->
      o.names <- o.names @ [ name ];
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  o

let find name =
  match List.find_opt (fun (w : Harness.workload) -> String.equal w.Harness.name name) workloads with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown workload %S\n" name;
    usage ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let ctx o ~spans =
  { Harness.seed = o.seed; seconds = o.seconds; smoke = o.smoke; spans; work_dir = o.work_dir }

let probe_args o (w : Harness.workload) =
  [ "--setup-probe"; w.Harness.name; "--seed"; string_of_int o.seed; "--work-dir"; o.work_dir ]
  @ if o.smoke then [ "--smoke" ] else []

(* One workload, end to end: set-up probes, the workload's own run,
   then the end-to-end values completed with set-up time and checked
   against the catalog. *)
let run_one o host ~trace_file (w : Harness.workload) =
  let started = Unix.gettimeofday () in
  let probes =
    if o.smoke then Harness.probe_setup ~least:1 ~most:1 ~budget_s:0.0 (probe_args o w)
    else Harness.probe_setup ~least:7 ~most:31 ~budget_s:1.0 (probe_args o w)
  in
  let setups = List.filter_map Result.to_option probes in
  let probe_errors = List.filter_map (function Ok _ -> None | Error e -> Some e) probes in
  let spans = Option.map (fun _ -> Harness.Spans.create ()) trace_file in
  let r =
    match w.Harness.run host (ctx o ~spans) with
    | r -> r
    | exception e ->
      {
        Harness.workload = w.Harness.name;
        seed = o.seed;
        measured_s = 0.0;
        reps = 0;
        attempted = 1;
        failed = 1;
        checks = [ Harness.check "workload ran to completion" false (Printexc.to_string e) ];
        digest = "";
        e2e = [];
        per_layer = [];
        ledger = None;
        view = [];
        notes = [];
      }
  in
  let e2e = ("setup_s", Harness.median setups) :: r.Harness.e2e in
  let missing = Catalog.missing Catalog.end_to_end e2e in
  let r =
    {
      r with
      Harness.e2e;
      checks =
        r.Harness.checks
        @ [
            Harness.check "set-up probes reached ready" (probe_errors = [])
              (match probe_errors with
              | [] -> Printf.sprintf "%d fresh-process probe(s)" (List.length setups)
              | e :: _ -> e);
            Harness.check "every end-to-end metric measured" (missing = [])
              (String.concat ", " missing);
          ];
    }
  in
  (match (spans, trace_file) with
  | Some sp, Some path ->
    Harness.Spans.write_json sp ~path ~workload:w.Harness.name ~seed:o.seed
  | _ -> ());
  (r, started)

let run_single o (w : Harness.workload) =
  let host = Harness.host ~smoke:false in
  Format.printf "%a@." Harness.pp_host host;
  let r, started = run_one o host ~trace_file:o.trace w in
  Format.printf "%a@." Harness.pp_result r;
  Option.iter (Format.printf "  spans written to %s@.") o.trace;
  if o.json then begin
    print_endline (Harness.detail_json ~host ~started r);
    print_endline (Harness.contract_json ~traced:(Option.is_some o.trace) r)
  end;
  if not (Harness.correct r) then exit 1

(* Several workloads run one after another, each in a fresh process of
   this program, so that none starts with another's heap or inherits
   its peak resident set.  Span files get the workload's name. *)
let run_each o names =
  let ok name =
    let args =
      [ name; "--seed"; string_of_int o.seed; "--seconds"; Printf.sprintf "%.17g" o.seconds ]
      @ [ "--work-dir"; o.work_dir ]
      @ (match o.trace with
        | Some f -> [ "--trace"; Printf.sprintf "%s-%s.json" (Filename.remove_extension f) name ]
        | None -> [])
      @ if o.json then [ "--json" ] else []
    in
    let pid =
      Unix.create_process Sys.executable_name
        (Array.of_list (Sys.executable_name :: args))
        Unix.stdin Unix.stdout Unix.stderr
    in
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED 0 -> true
    | Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> false
  in
  if not (List.for_all Fun.id (List.map ok names)) then exit 1

let smoke o =
  let host = Harness.host ~smoke:true in
  let o = { o with seconds = 0.0 } in
  let failures =
    List.filter_map
      (fun (w : Harness.workload) ->
        let file = Filename.concat o.work_dir ("smoke-" ^ w.Harness.name ^ ".json") in
        let r, _ = run_one o host ~trace_file:(Some file) w in
        if Harness.correct r then None else Some r)
      workloads
  in
  match failures with
  | [] ->
    Printf.printf "bench suite smoke: %d workloads correct, traced passes reproduce their digests\n"
      (List.length workloads)
  | rs ->
    List.iter (fun r -> Format.eprintf "%a@." Harness.pp_result r) rs;
    exit 1

let () =
  let o = parse Sys.argv in
  mkdir_p o.work_dir;
  match (o.daemon_child, o.setup_probe) with
  | Some path, _ -> W_daemon.child_main path
  | None, Some name ->
    (find name).Harness.setup (ctx o ~spans:None);
    print_endline "ready";
    exit 0
  | None, None when o.smoke -> smoke o
  | None, None -> (
    match List.map find o.names with
    | [] -> usage ()
    | [ w ] -> run_single o w
    | ws -> run_each o (List.map (fun (w : Harness.workload) -> w.Harness.name) ws))
