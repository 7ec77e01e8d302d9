(* daemon-soak: a live [Daemon] in a child process, n = c = 1 ms, on a
   Unix socket inside the work directory, driven by a closed loop of
   two control connections from this process.  Each connection repeats
   CREATE -> WAIT flowing -> STATUS -> TEARDOWN -> WAIT closed -> PING
   until a fixed number of calls is done, so a repetition is fixed
   work, not fixed time, and metrics that grow with the daemon's
   uptime compare like with like.  It is the only workload on the wall
   clock and real sockets, and the only one whose per-call cost can
   grow with uptime. *)

module D_transport = Mediactl_daemon_core.Transport
module D_control = Mediactl_daemon_core.Control
module D_daemon = Mediactl_daemon_core.Daemon
module D_wallclock = Mediactl_daemon_core.Wallclock
module Semantics = Mediactl_core.Semantics
module Spans = Harness.Spans

let name = "daemon-soak"
let n_ms = 1.0
let c_ms = 1.0
let lanes = 2
let wait_timeout_ms = 5_000.0
let stall_limit_s = 30.0

(* The 3n+4c crossed-open engage and the 2n+3c close handshake, the
   simulator's latencies for the calls this workload makes. *)
let model_flowing_ms = (3.0 *. n_ms) +. (4.0 *. c_ms)
let model_closing_ms = (2.0 *. n_ms) +. (3.0 *. c_ms)

(* At full size a repetition is 600 calls, 300 per connection, about
   4.5 s; the daemon behind it is fresh, so call k of every repetition
   meets the same uptime. *)
let calls_per_lane (ctx : Harness.ctx) = if ctx.smoke then 6 else 300

exception Soak_failed of string

(* ------------------------------------------------------------------ *)
(* The daemon child                                                    *)

(* The daemon runs in a fresh process of this program ([--daemon-child
   PATH], see [child_main]) rather than a fork: OCaml refuses to fork a
   process that has ever run a second domain, and the host calibration
   and check-par do.  The child says "listening" once its socket is
   bound, samples its major-heap size every 100 ms on the daemon's own
   loop, and after QUIT prints the samples and its peak resident set. *)
let child_main path =
  let listener = D_transport.listen (D_transport.Unix_sock path) in
  let d = D_daemon.create ~n:n_ms ~c:c_ms ~listener () in
  let loop = D_daemon.loop d in
  let samples = Buffer.create 4096 in
  let rec sample () =
    Printf.bprintf samples "heap %.6f %d\n" (Unix.gettimeofday ()) (Gc.quick_stat ()).Gc.heap_words;
    D_wallclock.after loop ~delay:100.0 sample
  in
  sample ();
  print_endline "listening";
  D_daemon.run d;
  (* heap figures are published at the end of a major cycle; finish
     one so the report is current *)
  Gc.full_major ();
  Printf.bprintf samples "heap %.6f %d\nrss %.17g\n" (Unix.gettimeofday ())
    (Gc.quick_stat ()).Gc.heap_words (Harness.peak_rss_mb ());
  print_string (Buffer.contents samples)

type child = { pid : int; out : in_channel; addr : D_transport.addr; mutable reaped : bool }

let sock_counter = ref 0

let spawn (ctx : Harness.ctx) =
  incr sock_counter;
  let path =
    Filename.concat ctx.work_dir (Printf.sprintf "d%d-%d.sock" (Unix.getpid ()) !sock_counter)
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close w)
      (fun () ->
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; "--daemon-child"; path |]
          Unix.stdin w Unix.stderr)
  in
  let child = { pid; out = Unix.in_channel_of_descr r; addr = D_transport.Unix_sock path; reaped = false } in
  match In_channel.input_line child.out with
  | Some "listening" -> child
  | Some _ | None ->
    ignore (Unix.waitpid [] pid);
    close_in_noerr child.out;
    raise (Soak_failed "daemon child did not start listening")

let reap child =
  if not child.reaped then begin
    child.reaped <- true;
    (try Unix.kill child.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] child.pid);
    close_in_noerr child.out
  end

(* Read the child's report after QUIT and wait for it to exit. *)
let collect child =
  let lines = In_channel.input_lines child.out in
  close_in_noerr child.out;
  child.reaped <- true;
  let status = snd (Unix.waitpid [] child.pid) in
  let rss = ref 0.0 and samples = ref [] in
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "rss"; mb ] -> rss := float_of_string mb
      | [ "heap"; t; w ] -> samples := (float_of_string t, int_of_string w) :: !samples
      | _ -> ())
    lines;
  match status with
  | Unix.WEXITED 0 when !rss > 0.0 -> (!rss, List.rev !samples)
  | _ -> raise (Soak_failed "daemon child exited abnormally or sent no report")

(* ------------------------------------------------------------------ *)
(* The closed-loop client                                              *)

type step = Create | Wait_flowing | Status | Teardown | Wait_closed | Ping

let span_name = function
  | Create -> "daemon.create"
  | Wait_flowing -> "daemon.wait_flowing"
  | Status -> "daemon.status"
  | Teardown -> "daemon.teardown"
  | Wait_closed -> "daemon.wait_closed"
  | Ping -> "daemon.ping"

(* One finished call: its client-side latencies in ms, when it
   finished (for the heap timeline), and whether every reply was OK
   and STATUS said satisfied. *)
type call = {
  create_ms : float;
  setup_ms : float;  (* CREATE sent -> WAIT flowing answered *)
  status_ms : float;
  teardown_ms : float;
  closing_ms : float;  (* TEARDOWN sent -> WAIT closed answered *)
  ping_ms : float;
  finished : float;  (* Unix time *)
  ok : bool;
}

type lane = {
  fd : Unix.file_descr;
  index : int;
  mutable buf : string;
  mutable step : step;
  mutable k : int;  (* calls started on this lane *)
  mutable id : string;
  mutable sent : int;
  mutable times : float list;  (* this call's step latencies, newest first *)
  mutable call_ok : bool;
  mutable sid : int;
  mutable root : int;  (* the call's span, or -1 untraced *)
  mutable child_span : int;
  mutable done_ : bool;
}

let send lane line =
  lane.sent <- Harness.now_ns ();
  D_transport.send_all lane.fd (line ^ "\n")

let request sp lane step =
  lane.step <- step;
  (match sp with
  | Some sp -> lane.child_span <- Spans.open_ sp ~parent:lane.root ~sid:lane.sid (span_name step)
  | None -> ());
  let req =
    match step with
    | Create -> D_control.Create { id = lane.id; left = Semantics.Open_end; right = Semantics.Open_end }
    | Wait_flowing -> D_control.Wait { id = lane.id; what = `Flowing; timeout_ms = wait_timeout_ms }
    | Status -> D_control.Status (Some lane.id)
    | Teardown -> D_control.Teardown lane.id
    | Wait_closed -> D_control.Wait { id = lane.id; what = `Closed; timeout_ms = wait_timeout_ms }
    | Ping -> D_control.Ping
  in
  send lane (D_control.render req)

let start_call sp lane ~quota =
  if lane.k >= quota then lane.done_ <- true
  else begin
    lane.id <- Printf.sprintf "c%d-%d" lane.index lane.k;
    lane.k <- lane.k + 1;
    lane.times <- [];
    lane.call_ok <- true;
    lane.sid <- (lane.index * quota) + lane.k - 1;
    (match sp with
    | Some sp -> lane.root <- Spans.open_ sp ~parent:(-1) ~sid:lane.sid "bench.call"
    | None -> ());
    request sp lane Create
  end

let ms_since t = Harness.secs_since t *. 1000.0

let satisfied line =
  let n = String.length line in
  n >= 9 && String.equal (String.sub line (n - 9) 9) "satisfied"

(* One response line.  A STATUS answer is its CALL lines followed by a
   final OK; every other request answers with one final line. *)
let on_line sp lane ~quota ~finish line =
  if not (D_control.final_line line) then begin
    if lane.step = Status && not (satisfied line) then lane.call_ok <- false
  end
  else begin
    if not (D_control.is_ok line) then lane.call_ok <- false;
    let rtt = ms_since lane.sent in
    (match sp with
    | Some sp -> Spans.close sp lane.child_span
    | None -> ());
    lane.times <- rtt :: lane.times;
    match lane.step with
    | Create -> request sp lane Wait_flowing
    | Wait_flowing -> request sp lane Status
    | Status -> request sp lane Teardown
    | Teardown -> request sp lane Wait_closed
    | Wait_closed -> request sp lane Ping
    | Ping -> (
      (match sp with
      | Some sp -> Spans.close sp lane.root
      | None -> ());
      match List.rev lane.times with
      | [ create_ms; flowing_wait; status_ms; teardown_ms; closed_wait; ping_ms ] ->
        finish
          {
            create_ms;
            setup_ms = create_ms +. flowing_wait;
            status_ms;
            teardown_ms;
            closing_ms = teardown_ms +. closed_wait;
            ping_ms;
            finished = Unix.gettimeofday ();
            ok = lane.call_ok;
          };
        start_call sp lane ~quota
      | _ -> raise (Soak_failed "a call finished with a missing reply"))
  end

let rec drain_lines sp lane ~quota ~finish =
  match String.index_opt lane.buf '\n' with
  | Some i ->
    let line = String.sub lane.buf 0 i in
    lane.buf <- String.sub lane.buf (i + 1) (String.length lane.buf - i - 1);
    on_line sp lane ~quota ~finish line;
    drain_lines sp lane ~quota ~finish
  | None -> ()

(* A blocking request for the set-up and shutdown steps. *)
let rec await_final lane =
  match String.index_opt lane.buf '\n' with
  | Some i ->
    let line = String.sub lane.buf 0 i in
    lane.buf <- String.sub lane.buf (i + 1) (String.length lane.buf - i - 1);
    if D_control.final_line line then line else await_final lane
  | None -> (
    match D_transport.recv lane.fd with
    | `Retry -> await_final lane
    | `Eof -> raise (Soak_failed "daemon closed a control connection")
    | `Data d ->
      lane.buf <- lane.buf ^ d;
      await_final lane)

let blocking lane req =
  send lane (D_control.render req);
  let line = await_final lane in
  if not (D_control.is_ok line) then raise (Soak_failed (Printf.sprintf "%S answered %S" (D_control.render req) line))

let connect child index =
  {
    fd = D_transport.connect child.addr;
    index;
    buf = "";
    step = Ping;
    k = 0;
    id = "";
    sent = 0;
    times = [];
    call_ok = true;
    sid = -1;
    root = -1;
    child_span = -1;
    done_ = false;
  }

(* Start a daemon and bring both connections to their first PONG. *)
let start ctx =
  let child = spawn ctx in
  match
    let ls = List.init lanes (connect child) in
    List.iter (fun l -> blocking l D_control.Ping) ls;
    ls
  with
  | ls -> (child, ls)
  | exception e ->
    reap child;
    raise e

let stop child ls =
  blocking (List.hd ls) D_control.Quit;
  List.iter (fun l -> D_transport.close_quiet l.fd) ls;
  collect child

(* The closed loop: [quota] calls on each connection, all connections
   in flight at once; returns the finished calls in order and the wall
   time they took. *)
let drive sp ls ~quota =
  let calls = ref [] in
  let finish c = calls := c :: !calls in
  let t0 = Harness.now_ns () in
  List.iter (fun l -> start_call sp l ~quota) ls;
  let last_progress = ref (Harness.now_ns ()) in
  while List.exists (fun l -> not l.done_) ls do
    let live = List.filter (fun l -> not l.done_) ls in
    let ready, _, _ =
      try Unix.select (List.map (fun l -> l.fd) live) [] [] 1.0
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if ready = [] && Harness.secs_since !last_progress > stall_limit_s then
      raise (Soak_failed "no reply from the daemon for 30 s");
    List.iter
      (fun l ->
        if List.mem l.fd ready then begin
          last_progress := Harness.now_ns ();
          match D_transport.recv l.fd with
          | `Retry -> ()
          | `Eof -> raise (Soak_failed "daemon closed a control connection")
          | `Data d ->
            l.buf <- l.buf ^ d;
            drain_lines sp l ~quota ~finish
        end)
      live
  done;
  (Array.of_list (List.rev !calls), Harness.secs_since t0)

(* Set-up starts a daemon and takes each connection through its first
   PONG and one warm-up call, so the daemon's call path has run once.
   The warm-up call also keeps the set-up time from being only the two
   process starts, whose cost a loaded host inflates by half at times
   while the timer-driven call barely moves. *)
let setup ctx =
  let child, ls = start ctx in
  Fun.protect
    ~finally:(fun () -> reap child)
    (fun () ->
      let calls, _ = drive None ls ~quota:1 in
      if not (Array.for_all (fun c -> c.ok) calls) then
        raise (Soak_failed "the warm-up call was not OK and satisfied");
      ignore (stop child ls))

type rep = { calls : call array; wall_s : float; peak_rss_mb : float; heap : (float * int) list }

(* One repetition: a fresh daemon, [calls_per_lane] calls on each
   connection, QUIT. *)
let soak ctx ~sp =
  let child, ls = start ctx in
  Fun.protect
    ~finally:(fun () -> reap child)
    (fun () ->
      let calls, wall_s = drive sp ls ~quota:(calls_per_lane ctx) in
      let peak_rss_mb, heap = stop child ls in
      { calls; wall_s; peak_rss_mb; heap })

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let pooled reps f = List.concat_map (fun r -> Array.to_list (Array.map f r.calls)) reps

(* The p50 of a latency over the last tenth of a repetition's calls
   divided by its p50 over the first tenth: 1 when the cost does not
   grow with the daemon's uptime. *)
let growth r f =
  let n = Array.length r.calls in
  let k = max 1 (n / 10) in
  let p50 a = Harness.median (Array.to_list (Array.map f a)) in
  Harness.ratio (p50 (Array.sub r.calls (n - k) k)) (p50 (Array.sub r.calls 0 k))

(* Heap growth per call between the first tenth of the calls and the
   end, from the child's 100 ms samples. *)
let heap_kb_per_call r =
  let n = Array.length r.calls in
  let k = max 1 (n / 10) in
  let t_k = r.calls.(k - 1).finished in
  let at_or_before t =
    List.fold_left (fun acc (ts, w) -> if ts <= t then Some w else acc) None r.heap
  in
  match (at_or_before t_k, List.rev r.heap) with
  | Some w_k, (_, w_end) :: _ ->
    Harness.ratio (float_of_int (w_end - w_k) *. 8.0 /. 1024.0) (float_of_int (n - k))
  | _ -> 0.0

let per_s_at_median xs = Harness.ratio 1000.0 (Harness.median xs)

let run _host (ctx : Harness.ctx) =
  setup ctx;
  let reps = ref [] in
  let t0 = Harness.now_ns () in
  let count =
    Harness.repeat ~t0 ~seconds:ctx.seconds (fun _ -> reps := soak ctx ~sp:None :: !reps)
  in
  let measured_s = Harness.secs_since t0 in
  let reps = List.rev !reps in
  let calls = pooled reps (fun c -> c) in
  let attempted = List.length calls in
  let failed = List.length (List.filter (fun c -> not c.ok) calls) in
  let rate r = Harness.per_s (Array.length r.calls) r.wall_s in
  let untraced_rate = Harness.median (List.map rate reps) in
  let setup_ms = pooled reps (fun c -> c.setup_ms) in
  let status_ms = pooled reps (fun c -> c.status_ms) in
  let e2e =
    [
      ("throughput_per_s", untraced_rate);
      ("latency_ms", Harness.median setup_ms);
      ("peak_rss_mb", Harness.median (List.map (fun r -> r.peak_rss_mb) reps));
    ]
  in
  let untraced_layer =
    [
      ("daemon.ping_per_s", per_s_at_median (pooled reps (fun c -> c.ping_ms)));
      ("daemon.create_per_s", per_s_at_median (pooled reps (fun c -> c.create_ms)));
      ("daemon.status_per_s", per_s_at_median status_ms);
      ("daemon.teardown_per_s", per_s_at_median (pooled reps (fun c -> c.teardown_ms)));
      ( "daemon.status_p99_ratio",
        Harness.ratio (Harness.quantile status_ms 0.99) (Harness.median status_ms) );
      ( "daemon.setup_p99_ratio",
        Harness.ratio (Harness.quantile setup_ms 0.99) (Harness.median setup_ms) );
      ( "daemon.flowing_overhead_pct",
        100.0 *. ((Harness.median setup_ms /. model_flowing_ms) -. 1.0) );
      ( "daemon.closing_overhead_pct",
        100.0 *. ((Harness.median (pooled reps (fun c -> c.closing_ms)) /. model_closing_ms) -. 1.0)
      );
      ("daemon.create_growth", Harness.median (List.map (fun r -> growth r (fun c -> c.create_ms)) reps));
      ("daemon.status_growth", Harness.median (List.map (fun r -> growth r (fun c -> c.status_ms)) reps));
      ("daemon.heap_kb_per_call", Harness.median (List.map heap_kb_per_call reps));
    ]
  in
  let quota = lanes * calls_per_lane ctx in
  let checks =
    [
      Harness.check "every reply OK and every STATUS satisfied" (failed = 0)
        (Printf.sprintf "%d of %d calls failed" failed attempted);
      Harness.check "every repetition completed its calls" (attempted = count * quota)
        (Printf.sprintf "%d calls over %d repetition(s) of %d" attempted count quota);
    ]
  in
  let ledger, per_layer, checks =
    match ctx.spans with
    | None -> (None, [], checks)
    | Some sp ->
      let traced = soak ctx ~sp:(Some sp) in
      let rows = Spans.self_by_layer sp in
      let ledger =
        {
          Harness.wall_s = traced.wall_s;
          lanes;
          rows;
          overhead_pct = 100.0 *. (Harness.ratio untraced_rate (rate traced) -. 1.0);
        }
      in
      let traced_failed = List.length (List.filter (fun c -> not c.ok) (Array.to_list traced.calls)) in
      ( Some ledger,
        Harness.ledger_values ledger ~spans:(Spans.length sp) @ untraced_layer,
        checks
        @ [
            Harness.check "traced repetition: every reply OK and every STATUS satisfied"
              (traced_failed = 0 && Array.length traced.calls = quota)
              (Printf.sprintf "%d of %d calls failed" traced_failed (Array.length traced.calls));
          ] )
  in
  {
    Harness.workload = name;
    seed = ctx.seed;
    measured_s;
    reps = count;
    attempted;
    failed;
    checks;
    digest = "none (wall-clock workload)";
    e2e;
    per_layer;
    ledger;
    view =
      [
        ("calls_per_s", untraced_rate, "1/s");
        ("call_setup_ms_p50", Harness.median setup_ms, "ms");
        ("call_setup_ms_p99", Harness.quantile setup_ms 0.99, "ms");
        ("call_setup_samples", float_of_int (List.length setup_ms), "count");
        ("teardown_ms_p50", Harness.median (pooled reps (fun c -> c.closing_ms)), "ms");
        ("heap_kb_per_call", Harness.median (List.map heap_kb_per_call reps), "KB");
      ];
    notes =
      [
        Printf.sprintf "n = c = %.0f ms, %d connections x %d calls per repetition, closed loop"
          n_ms lanes (calls_per_lane ctx);
      ];
  }

let workload = { Harness.name; setup; run }
