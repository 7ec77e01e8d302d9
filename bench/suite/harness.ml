(* Shared machinery of the benchmark suite: the clock, order
   statistics, the in-memory span recorder and the self-time ledger
   built from it, the host record, fresh-process set-up probes, and
   the JSON the suite prints.  Nothing here touches the library under
   test; the workload modules call into the library and use these
   helpers to time and report what they see. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_of_ns ns = float_of_int ns *. 1e-9
let secs_since t0 = secs_of_ns (now_ns () - t0)

(* The suite derives every input from the run's [--seed]: input [k] of
   a run gets [derive seed k], so equal seeds give equal inputs and
   distinct [k] give unrelated streams. *)
let derive seed k = (seed * 7919) + k

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)

(* Linear interpolation between closest ranks over a sorted copy. *)
let quantile xs p =
  match xs with
  | [] -> nan
  | _ ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let sum xs = List.fold_left ( +. ) 0.0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b
let per_s count seconds = ratio (float_of_int count) seconds

(* ------------------------------------------------------------------ *)
(* Metrics and results                                                 *)

type check = { what : string; ok : bool; detail : string }

let check what ok detail = { what; ok; detail }

(* The ledger of a traced pass: [rows] holds each layer's self time in
   seconds, busy time not covered by a child span; [lanes] is how many
   spans ran at once (the daemon client keeps two connections busy), so
   the rows reconcile against [lanes * wall_s]. *)
type ledger = { wall_s : float; lanes : int; rows : (string * float) list; overhead_pct : float }

let ledger_capacity l = float_of_int l.lanes *. l.wall_s

let residual_pct l =
  let covered = sum (List.map snd l.rows) in
  100.0 *. ratio (ledger_capacity l -. covered) (ledger_capacity l)

let layer_pct l layer =
  100.0 *. ratio (Option.value ~default:0.0 (List.assoc_opt layer l.rows)) (ledger_capacity l)

type result = {
  workload : string;
  seed : int;
  measured_s : float;
  reps : int;
  attempted : int;
  failed : int;
  checks : check list;
  digest : string;
  e2e : (string * float) list;  (** end-to-end values by catalog name *)
  per_layer : (string * float) list;  (** per-layer values; empty unless traced *)
  ledger : ledger option;
  view : (string * float * string) list;
      (** the workload's headline numbers under their own names (name,
          value, unit), read from the same measurements as [e2e] *)
  notes : string list;
}

let correct r = r.failed = 0 && List.for_all (fun c -> c.ok) r.checks

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

(* Spans are recorded from the suite's own code around its calls into
   the library — name, start, end, parent, and the id of the session
   (or call, or config) the work belongs to — into flat growable
   arrays, and written out only when the run ends. *)
module Spans = struct
  type t = {
    mutable names : string array;
    mutable starts : int array;
    mutable stops : int array;
    mutable parents : int array;
    mutable sids : int array;
    mutable len : int;
    mutable current : int;
    origin : int;
  }

  let create () =
    {
      names = Array.make 1024 "";
      starts = Array.make 1024 0;
      stops = Array.make 1024 0;
      parents = Array.make 1024 (-1);
      sids = Array.make 1024 (-1);
      len = 0;
      current = -1;
      origin = now_ns ();
    }

  let length t = t.len

  let grow t =
    let cap = 2 * Array.length t.names in
    let extend a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 t.len;
      b
    in
    t.names <- extend t.names "";
    t.starts <- extend t.starts 0;
    t.stops <- extend t.stops 0;
    t.parents <- extend t.parents (-1);
    t.sids <- extend t.sids (-1)

  (* Open a span under an explicit parent (-1 for a root); concurrent
     work, such as the daemon client's two connections, keeps one
     parent per lane instead of using [current]. *)
  let open_ t ~parent ~sid name =
    if t.len = Array.length t.names then grow t;
    let i = t.len in
    t.names.(i) <- name;
    t.starts.(i) <- now_ns ();
    t.stops.(i) <- t.starts.(i);
    t.parents.(i) <- parent;
    t.sids.(i) <- sid;
    t.len <- i + 1;
    i

  let close t i = t.stops.(i) <- now_ns ()

  (* Nested recording for single-lane passes: the new span's parent
     is the innermost open one, and it inherits that span's session id
     unless given its own. *)
  let within t ?sid name f =
    let parent = t.current in
    let sid =
      match sid with
      | Some s -> s
      | None -> if parent >= 0 then t.sids.(parent) else -1
    in
    let i = open_ t ~parent ~sid name in
    t.current <- i;
    match f () with
    | v ->
      close t i;
      t.current <- parent;
      v
    | exception e ->
      close t i;
      t.current <- parent;
      raise e

  let duration_s t i = secs_of_ns (t.stops.(i) - t.starts.(i))

  let layer_of name =
    match String.index_opt name '.' with
    | Some k -> String.sub name 0 k
    | None -> name

  (* A span's self time is its duration minus the time its children
     cover; children never overlap their parent's other children
     because each lane records sequentially. *)
  let self_by_layer t =
    let self = Array.init t.len (fun i -> duration_s t i) in
    for i = 0 to t.len - 1 do
      let p = t.parents.(i) in
      if p >= 0 then self.(p) <- self.(p) -. duration_s t i
    done;
    let tbl = Hashtbl.create 8 in
    for i = 0 to t.len - 1 do
      let l = layer_of t.names.(i) in
      Hashtbl.replace tbl l (self.(i) +. Option.value ~default:0.0 (Hashtbl.find_opt tbl l))
    done;
    List.filter_map (fun l -> Option.map (fun s -> (l, s)) (Hashtbl.find_opt tbl l)) Catalog.layers

  (* Total duration and count of every span with this name. *)
  let total t name =
    let s = ref 0.0 and n = ref 0 in
    for i = 0 to t.len - 1 do
      if String.equal t.names.(i) name then begin
        s := !s +. duration_s t i;
        incr n
      end
    done;
    (!s, !n)

  (* Durations of the spans with this name, indexed by session id. *)
  let durations_by_sid t name ~sessions =
    let d = Array.make sessions 0.0 in
    for i = 0 to t.len - 1 do
      let sid = t.sids.(i) in
      if String.equal t.names.(i) name && sid >= 0 && sid < sessions then
        d.(sid) <- d.(sid) +. duration_s t i
    done;
    d

  let json_escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let write_json t ~path ~workload ~seed =
    let oc = open_out path in
    let us ns = float_of_int (ns - t.origin) /. 1000.0 in
    Printf.fprintf oc "{\"workload\": \"%s\", \"seed\": %d, \"unit\": \"us\", \"spans\": [" workload
      seed;
    for i = 0 to t.len - 1 do
      Printf.fprintf oc
        "%s\n{\"name\": \"%s\", \"start\": %.3f, \"end\": %.3f, \"parent\": %d, \"session\": %d}"
        (if i = 0 then "" else ",")
        (json_escape t.names.(i))
        (us t.starts.(i))
        (us t.stops.(i))
        t.parents.(i) t.sids.(i)
    done;
    Printf.fprintf oc "\n]}\n";
    close_out oc
end

(* Move [amount] seconds of self time from one ledger layer to
   another: a traced pass sees, say, one [Session.run] span, and the
   probes that split it into set-up, drive and analysis move the
   attributed shares out of it. *)
let reassign rows ~from ~to_ amount =
  let get l = Option.value ~default:0.0 (List.assoc_opt l rows) in
  let updated l =
    if String.equal l from then get l -. amount
    else if String.equal l to_ then get l +. amount
    else get l
  in
  List.filter_map
    (fun l ->
      if List.mem_assoc l rows || String.equal l to_ then Some (l, updated l) else None)
    Catalog.layers

(* ------------------------------------------------------------------ *)
(* Host record                                                         *)

type host = {
  usable_domains : int;
  parallel_efficiency : float;
  nproc : int;
  ocaml : string;
  commit : string;
  source : string;
  gc : string;
}

(* Run a program, returning its trimmed standard output when it exits
   0; its standard error is discarded. *)
let command_output prog args =
  match
    let r, w = Unix.pipe ~cloexec:true () in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
    let pid =
      Fun.protect
        ~finally:(fun () ->
          Unix.close w;
          Unix.close null)
        (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin w null)
    in
    let ic = Unix.in_channel_of_descr r in
    let out = In_channel.input_all ic in
    close_in ic;
    (out, snd (Unix.waitpid [] pid))
  with
  | out, Unix.WEXITED 0 -> Some (String.trim out)
  | _, (Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _) -> None
  | exception Unix.Unix_error _ -> None

let spin iters =
  let acc = ref 0 in
  for i = 1 to iters do
    acc := (!acc * 31) lxor i
  done;
  Sys.opaque_identity !acc

(* How many domains really run at once here: the same spin loop on one
   domain and then on [k] domains at once; [k] times the single time
   over the parallel time is the parallelism the host delivered, which
   a loaded or throttled host reports below [nproc] however many CPUs
   it advertises. *)
let calibrate ~iters k =
  let best f = List.fold_left min max_int (List.init 3 (fun _ -> f ())) in
  let one =
    best (fun () ->
        let t0 = now_ns () in
        ignore (spin iters);
        now_ns () - t0)
  in
  let par =
    best (fun () ->
        let t0 = now_ns () in
        let ds = Array.init k (fun _ -> Domain.spawn (fun () -> spin iters)) in
        Array.iter (fun d -> ignore (Domain.join d)) ds;
        now_ns () - t0)
  in
  let eff = float_of_int k *. float_of_int one /. float_of_int (max 1 par) in
  (max 1 (min k (int_of_float (eff +. 0.5))), eff)

(* A digest of the library sources, so a record taken outside a git
   checkout still says which code it measured. *)
let source_digest () =
  let files = ref [] in
  let rec walk dir =
    match Sys.readdir dir with
    | entries ->
      Array.iter
        (fun e ->
          let p = Filename.concat dir e in
          if Sys.is_directory p then walk p
          else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli" then
            files := p :: !files)
        entries
    | exception Sys_error _ -> ()
  in
  walk "lib";
  match List.sort String.compare !files with
  | [] -> "unknown"
  | files ->
    let b = Buffer.create 4096 in
    List.iter
      (fun f ->
        Buffer.add_string b f;
        Buffer.add_string b (Digest.to_hex (Digest.file f)))
      files;
    String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 12

let host ~smoke =
  let nproc =
    match Option.bind (command_output "nproc" []) int_of_string_opt with
    | Some n when n > 0 -> n
    | Some _ | None -> Domain.recommended_domain_count ()
  in
  let usable_domains, parallel_efficiency =
    calibrate ~iters:(if smoke then 200_000 else 20_000_000) (max 2 (min nproc 8))
  in
  let g = Gc.get () in
  {
    usable_domains;
    parallel_efficiency;
    nproc;
    ocaml = Sys.ocaml_version;
    commit =
      (* only this directory's own repository, not one git finds above it *)
      (if Sys.file_exists ".git" then command_output "git" [ "rev-parse"; "--short=12"; "HEAD" ]
       else None)
      |> Option.value ~default:"unknown";
    source = source_digest ();
    gc =
      Printf.sprintf "minor_heap_words=%d space_overhead=%d" g.Gc.minor_heap_size
        g.Gc.space_overhead;
  }

(* ------------------------------------------------------------------ *)
(* Set-up probes                                                       *)

(* Set-up time is measured in fresh processes: each probe re-executes
   this program in set-up-only mode and times it from spawn until it
   reports "ready", so one-time work — module initialisation, interning
   tables, the first heap growth — is counted every time, exactly as a
   user starting the program pays it.  At least [least] probes run, and
   cheap set-ups get more, up to [most], until [budget_s] is spent: the
   median of a few milliseconds needs more samples than that of a
   quarter second. *)
let probe_setup ~least ~most ~budget_s args =
  let one () =
    let r, w = Unix.pipe ~cloexec:true () in
    let t0 = now_ns () in
    let pid =
      Fun.protect
        ~finally:(fun () -> Unix.close w)
        (fun () ->
          Unix.create_process Sys.executable_name
            (Array.of_list (Sys.executable_name :: args))
            Unix.stdin w Unix.stderr)
    in
    let ic = Unix.in_channel_of_descr r in
    let ready =
      match In_channel.input_line ic with
      | Some "ready" -> Some (secs_since t0)
      | Some _ | None -> None
    in
    ignore (In_channel.input_all ic);
    close_in ic;
    match (ready, snd (Unix.waitpid [] pid)) with
    | Some s, Unix.WEXITED 0 -> Ok s
    | _, Unix.WEXITED code -> Error (Printf.sprintf "set-up probe exited %d" code)
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      Error (Printf.sprintf "set-up probe killed by signal %d" n)
  in
  let t0 = now_ns () in
  let rec go acc n =
    if n >= most || (n >= least && secs_since t0 >= budget_s) then List.rev acc
    else go (one () :: acc) (n + 1)
  in
  go [] 0

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

(* What one run of a workload is given: its seed, how long to keep
   measuring, whether this is the small smoke size, the span recorder
   of a traced run, and a directory inside the checkout for sockets. *)
type ctx = {
  seed : int;
  seconds : float;
  smoke : bool;
  spans : Spans.t option;
  work_dir : string;
}

type workload = {
  name : string;
  setup : ctx -> unit;
      (** everything before the first timed operation; a set-up probe
          runs exactly this in a fresh process *)
  run : host -> ctx -> result;
      (** set-up, then timed repetitions until [ctx.seconds] have
          passed (at least one), then the traced pass if [ctx.spans] *)
}

(* The peak resident set of this process so far, in MB, from the
   kernel's high-water mark.  The GC's [top_heap_words] is no substitute
   once a second domain has run: it is not a high-water mark then, and
   consecutive readings in one check-par process range from 70 to
   125 MB. *)
let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_opt (fun l -> String.starts_with ~prefix:"VmHWM:" l)
  in
  match Option.bind line (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> kb)) with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failwith "no VmHWM line in /proc/self/status: the peak resident set is unavailable"

(* Repeat [rep] (given its index) while measuring: always once, then
   again until [seconds] have passed since [t0]; returns the count.
   Each repetition starts from a collected heap, so one repetition's
   garbage is not charged to the next. *)
let repeat ~t0 ~seconds rep =
  let rec go r =
    if r = 0 || secs_since t0 < seconds then begin
      Gc.full_major ();
      rep r;
      go (r + 1)
    end
    else r
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_number v = Printf.sprintf "%.17g" v

let e2e_metrics r = Catalog.fill Catalog.end_to_end r.e2e
let layer_metrics r = if r.per_layer = [] then [] else Catalog.fill Catalog.per_layer r.per_layer

(* The ledger's own per-layer metrics: tracing overhead, the
   reconciliation residual, and each layer's self-time share. *)
let ledger_values l ~spans =
  [
    ("trace.overhead_pct", l.overhead_pct);
    ("trace.residual_pct", residual_pct l);
    ("trace.spans", float_of_int spans);
  ]
  @ List.map (fun layer -> ("self." ^ layer ^ "_pct", layer_pct l layer)) Catalog.layers

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (m : Catalog.metric) ->
         Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.Catalog.name
           (json_number m.Catalog.value) m.Catalog.unit_)
       ms)

(* The full record of one workload run, for [compare.py]; one line. *)
let detail_json ~host ~started r =
  let s = Spans.json_escape in
  Printf.sprintf
    "{\"bench\": \"mediactl-suite\", \"workload\": \"%s\", \"seed\": %d, \"started\": %.3f, \
     \"measured_s\": %s, \"reps\": %d, \"correct\": %b, \"attempted\": %d, \"failed\": %d, \
     \"digest\": \"%s\", \"host\": {\"usable_domains\": %d, \"parallel_efficiency\": %.3f, \
     \"nproc\": %d, \"ocaml\": \"%s\", \"commit\": \"%s\", \"source\": \"%s\", \"gc\": \"%s\"}, \
     \"checks\": [%s], \"notes\": [%s], \"view\": {%s}, \"end_to_end\": {%s}, \"per_layer\": {%s}}"
    r.workload r.seed started (json_number r.measured_s) r.reps (correct r) r.attempted r.failed
    r.digest host.usable_domains host.parallel_efficiency host.nproc (s host.ocaml)
    (s host.commit) (s host.source) (s host.gc)
    (String.concat ", "
       (List.map
          (fun c ->
            Printf.sprintf "{\"what\": \"%s\", \"ok\": %b, \"detail\": \"%s\"}" (s c.what)
              c.ok (s c.detail))
          r.checks))
    (String.concat ", " (List.map (fun n -> Printf.sprintf "\"%s\"" (s n)) r.notes))
    (json_metrics (List.map (fun (name, value, unit_) -> Catalog.metric name unit_ value) r.view))
    (json_metrics (e2e_metrics r))
    (json_metrics (layer_metrics r))

(* The last line of a run in [--json] mode: exactly the four keys the
   benchmark definition fixes, with the end-to-end metrics on an
   untraced run and the per-layer metrics on a traced one. *)
let contract_json ~traced r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct r) (max 1 r.attempted) r.failed
    (json_metrics (if traced then layer_metrics r else e2e_metrics r))

let pp_host ppf h =
  Format.fprintf ppf
    "host: usable_domains %d (parallel efficiency %.2f), nproc %d, ocaml %s, commit %s, lib \
     sources %s, gc %s"
    h.usable_domains h.parallel_efficiency h.nproc h.ocaml h.commit h.source h.gc

let pp_metric ppf (m : Catalog.metric) =
  Format.fprintf ppf "  %-34s %16.4f %s" m.Catalog.name m.Catalog.value m.Catalog.unit_

let pp_ledger ppf l =
  Format.fprintf ppf "  traced pass: %.3f s wall x %d lane(s); self time by layer:" l.wall_s
    l.lanes;
  List.iter
    (fun (layer, s) ->
      Format.fprintf ppf "@,    %-8s %10.4f s  %6.2f%%" layer s (layer_pct l layer))
    l.rows;
  Format.fprintf ppf "@,  reconciliation residual %.2f%% of wall; tracing overhead %+.2f%%"
    (residual_pct l) l.overhead_pct

let pp_result ppf r =
  Format.fprintf ppf "@[<v>== %s  seed %d: %d rep(s) in %.2f s measured ==" r.workload r.seed
    r.reps r.measured_s;
  List.iter (fun m -> Format.fprintf ppf "@,%a" pp_metric m) (e2e_metrics r);
  Format.fprintf ppf "@,  workload view:";
  List.iter
    (fun (name, value, unit_) -> Format.fprintf ppf " %s %.4g %s;" name value unit_)
    (r.view @ [ ("failed_ratio", ratio (float_of_int r.failed) (float_of_int r.attempted), "ratio") ]);
  List.iter
    (fun c ->
      Format.fprintf ppf "@,  check %-4s %s: %s" (if c.ok then "ok" else "FAIL") c.what c.detail)
    r.checks;
  Format.fprintf ppf "@,  %d attempted, %d failed; digest %s" r.attempted r.failed r.digest;
  List.iter (fun n -> Format.fprintf ppf "@,  note: %s" n) r.notes;
  (match r.ledger with
  | Some l -> Format.fprintf ppf "@,%a" pp_ledger l
  | None -> ());
  (match layer_metrics r with
  | [] -> ()
  | ms ->
    let measured, bypassed = List.partition (fun (m : Catalog.metric) -> m.Catalog.value <> 0.0) ms in
    Format.fprintf ppf "@,  per-layer (%d more read 0: layers this workload bypasses):"
      (List.length bypassed);
    List.iter (fun m -> Format.fprintf ppf "@,%a" pp_metric m) measured);
  Format.fprintf ppf "@]"
