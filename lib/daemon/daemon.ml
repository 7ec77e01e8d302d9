open Mediactl_runtime
open Mediactl_obs

(* The daemon: one wall-clock select loop driving every call on its
   own network, one listening socket speaking both of the daemon's
   protocols, and one long trace recording.  The recording is
   drained after every socket read and every protocol timer, so the
   ring never holds more than one callback's events: each drained
   entry steps the monitor of the call whose channel it names — the
   monitor STATUS judges — and, with [--trace], is appended to the
   JSONL file.  Nothing of the trace is kept once it is drained.

   A fresh inbound connection is sniffed on its first four bytes:
   [Wire.magic] marks a binary wire peer (another daemon bridging a
   call here); anything else is a newline-ASCII control client.  Wire
   peers and control clients therefore share one address, which keeps
   deployment to a single socket per daemon.

   A bridged call's own driver carries the runtime's impairment hook,
   which ships every frame its real end emits to the peer daemon over
   the call's wire connection; a local call's signals ride the reliable
   path.  A wire connection acts only on the calls bridged over it. *)

type conn_mode =
  | Sniffing of string  (* bytes seen so far, fewer than 4 *)
  | Ctl of Buffer.t  (* partial-line buffer *)
  | Peer of Wire.decoder

type conn = {
  fd : Unix.file_descr;
  peer_name : string;
  mutable mode : conn_mode;
  mutable live : bool;
}

(* Where drained trace segments go besides the call monitors. *)
type tracing = {
  mutable out : (string * out_channel) option;  (* the [--trace] file, while open *)
  mutable entries : int;  (* drained so far *)
}

type t = {
  loop : Wallclock.t;
  make_driver : Netsys.t -> Timed.t;  (* a call's own driver on [loop] *)
  tracing : tracing;
  listen_fd : Unix.file_descr;
  bound : Transport.addr;
  calls : (string, Call.t) Hashtbl.t;  (* by call id = channel name *)
  bridges : (string, conn) Hashtbl.t;  (* call id -> its wire connection *)
  mutable conns : conn list;
  mutable down : bool;
  log : string -> unit;
}

let loop t = t.loop
let bound t = t.bound
let calls t = Hashtbl.fold (fun _ c acc -> c :: acc) t.calls []
let logf t fmt = Printf.ksprintf t.log fmt

(* ------------------------------------------------------------------ *)
(* The trace, drained as it is recorded                                *)

let absorb calls tracing seg =
  let n = Trace.Packed.length seg in
  if n > 0 then begin
    (match tracing.out with
    | Some (_, oc) ->
      let b = Buffer.create 4096 in
      Trace.Packed.add_jsonl b seg;
      Buffer.output_buffer oc b
    | None -> ());
    tracing.entries <- tracing.entries + n;
    for i = 0 to n - 1 do
      match Trace.Packed.tag seg i with
      | 4 | 5 -> () (* slot and goal entries name no channel *)
      | _ -> (
        match Hashtbl.find_opt calls (Trace.Packed.entry_chan seg i) with
        | Some call -> Call.step call seg i
        | None -> ())
    done
  end

(* Drain whatever the last callback recorded.  Outside {!run}'s
   recording bracket there is nothing to drain. *)
let settle calls tracing = if Trace.enabled () then absorb calls tracing (Trace.drain ())

(* ------------------------------------------------------------------ *)
(* Connection bookkeeping                                              *)

let close_conn t conn =
  if conn.live then begin
    conn.live <- false;
    Wallclock.remove_fd t.loop conn.fd;
    Transport.close_quiet conn.fd;
    t.conns <- List.filter (fun c -> c != conn) t.conns;
    (* a dead wire connection means the peer daemon is gone: close the
       local end of every call bridged over it *)
    let lost = Hashtbl.fold (fun id c acc -> if c == conn then id :: acc else acc) t.bridges [] in
    List.iter
      (fun id ->
        Hashtbl.remove t.bridges id;
        match Hashtbl.find_opt t.calls id with
        | Some call when not (Call.torn call) ->
          logf t "call %s: bridge lost, closing local end" id;
          Call.teardown call
        | Some _ | None -> ())
      lost
  end

let send_line t conn line =
  match Transport.send_all conn.fd (line ^ "\n") with
  | () -> ()
  | exception Unix.Unix_error _ -> close_conn t conn

let send_frame t conn frame =
  match Transport.send_all conn.fd (Wire.encode frame) with
  | () -> ()
  | exception Unix.Unix_error _ -> close_conn t conn

(* A bridged call's way onto [conn]: it writes only while the
   connection is live, since a closed fd's number can be reused. *)
let sender t conn frame =
  if conn.live then begin
    send_frame t conn frame;
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Shutdown                                                            *)

let shutdown t =
  if not t.down then begin
    t.down <- true;
    Wallclock.remove_fd t.loop t.listen_fd;
    Transport.close_quiet t.listen_fd;
    List.iter (fun c -> close_conn t c) t.conns;
    (match t.bound with
    | Transport.Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Transport.Tcp _ -> ());
    settle t.calls t.tracing;
    (match t.tracing.out with
    | Some (path, oc) ->
      t.tracing.out <- None;
      close_out oc;
      logf t "trace: %d events -> %s" t.tracing.entries path
    | None -> ());
    Wallclock.stop t.loop
  end

(* ------------------------------------------------------------------ *)
(* Wire peers                                                          *)

(* The call [chan] names, if it is bridged over [conn]: no other
   connection may signal into a call or tear it down. *)
let bridged_call t conn chan =
  match Hashtbl.find_opt t.bridges chan with
  | Some c when c == conn -> Hashtbl.find_opt t.calls chan
  | Some _ | None -> None

let handle_frame t conn frame =
  match frame with
  | Wire.Hello { chan; origin; accept } ->
    if Hashtbl.mem t.calls chan then begin
      logf t "wire %s: hello for existing call %s, dropping connection" conn.peer_name chan;
      close_conn t conn
    end
    else begin
      logf t "wire %s: %s" conn.peer_name (Format.asprintf "%a" Wire.pp frame);
      let role = Call.Acceptor (sender t conn) in
      Hashtbl.replace t.calls chan
        (Call.create ~make_driver:t.make_driver ~id:chan ~role ~left:origin ~right:accept);
      Hashtbl.replace t.bridges chan conn
    end
  | Wire.Signal_f { chan; tun; signal } -> (
    match bridged_call t conn chan with
    | Some call -> Call.receive call ~tun signal
    | None -> logf t "wire %s: signal for call %s, not bridged here, ignoring" conn.peer_name chan)
  | Wire.Bye { chan } -> (
    match bridged_call t conn chan with
    | Some call ->
      logf t "wire %s: bye(%s)" conn.peer_name chan;
      Call.teardown call
    | None -> logf t "wire %s: bye for call %s, not bridged here, ignoring" conn.peer_name chan)

let rec drain_frames t conn dec =
  if conn.live then
    match Wire.next dec with
    | None -> ()
    | Some (Ok frame) ->
      handle_frame t conn frame;
      drain_frames t conn dec
    | Some (Error msg) ->
      logf t "wire %s: protocol error: %s" conn.peer_name msg;
      close_conn t conn

(* ------------------------------------------------------------------ *)
(* Control plane                                                       *)

let status_lines t which =
  settle t.calls t.tracing;
  match which with
  | Some id -> (
    match Hashtbl.find_opt t.calls id with
    | Some call -> Ok [ Call.status_line call ]
    | None -> Error (Control.error "no such call %s" id))
  | None -> Ok (List.sort String.compare (List.map Call.status_line (calls t)))

let with_call t conn id k =
  match Hashtbl.find_opt t.calls id with
  | Some call -> k call
  | None -> send_line t conn (Control.error "no such call %s" id)

let handle_wait t conn ~id ~what ~timeout_ms =
  with_call t conn id (fun call ->
    let pred = match what with `Flowing -> Call.flowing call | `Closed -> Call.closed call in
    let answered = ref false in
    (* A watch is dropped only once its predicate holds, so it also
       holds once the WAIT is answered: a timed-out WAIT on a condition
       that never comes true must not stay on the driver for good. *)
    Timed.when_true (Call.driver call) (fun net -> !answered || pred net) (fun at ->
      if (not !answered) && conn.live then begin
        answered := true;
        send_line t conn (Control.ok "wait %s %s %.1f" id (Control.what_to_string what) at)
      end);
    Wallclock.after t.loop ~delay:timeout_ms (fun () ->
      if not !answered then begin
        answered := true;
        if conn.live then
          send_line t conn
            (Control.error "wait %s %s timeout after %gms" id (Control.what_to_string what)
               timeout_ms)
      end))

let rec handle_request t conn req =
  match req with
  | Control.Ping -> send_line t conn (Control.ok "pong %.1f" (Wallclock.now t.loop))
  | Control.Create { id; left; right } ->
    if Hashtbl.mem t.calls id then send_line t conn (Control.error "call %s already exists" id)
    else begin
      Hashtbl.replace t.calls id
        (Call.create ~make_driver:t.make_driver ~id ~role:Call.Local_call ~left ~right);
      send_line t conn (Control.ok "created %s" id)
    end
  | Control.Dial { id; addr; left; right } ->
    if Hashtbl.mem t.calls id then send_line t conn (Control.error "call %s already exists" id)
    else begin
      match Transport.connect addr with
      | exception Unix.Unix_error (e, _, _) ->
        send_line t conn
          (Control.error "dial %s: cannot reach %s: %s" id (Transport.addr_to_string addr)
             (Unix.error_message e))
      | fd ->
        let peer = { fd; peer_name = Transport.addr_to_string addr; mode = Peer (Wire.decoder ()); live = true } in
        t.conns <- peer :: t.conns;
        watch_conn t peer;
        Transport.send_all fd Wire.magic;
        (* the Hello goes first: the call's engage ships its first signal *)
        send_frame t peer (Wire.Hello { chan = id; origin = left; accept = right });
        let role = Call.Origin (sender t peer) in
        Hashtbl.replace t.calls id (Call.create ~make_driver:t.make_driver ~id ~role ~left ~right);
        Hashtbl.replace t.bridges id peer;
        send_line t conn (Control.ok "dialing %s via %s" id (Transport.addr_to_string addr))
    end
  | Control.Hold id ->
    with_call t conn id (fun call ->
      Call.hold call;
      send_line t conn (Control.ok "held %s" id))
  | Control.Resume id ->
    with_call t conn id (fun call ->
      Call.resume call;
      send_line t conn (Control.ok "resumed %s" id))
  | Control.Teardown id ->
    with_call t conn id (fun call ->
      Call.teardown call;
      (match Hashtbl.find_opt t.bridges id with
      | Some peer -> send_frame t peer (Wire.Bye { chan = id })
      | None -> ());
      send_line t conn (Control.ok "teardown %s" id))
  | Control.Status which -> (
    match status_lines t which with
    | Ok lines ->
      List.iter (send_line t conn) lines;
      send_line t conn (Control.ok "%d call(s)" (List.length lines))
    | Error line -> send_line t conn line)
  | Control.Wait { id; what; timeout_ms } -> handle_wait t conn ~id ~what ~timeout_ms
  | Control.Quit ->
    send_line t conn (Control.ok "bye");
    logf t "quit requested by %s" conn.peer_name;
    shutdown t

and handle_line t conn line =
  if not (String.equal (String.trim line) "") then
    match Control.parse line with
    | Ok req -> handle_request t conn req
    | Error msg -> send_line t conn (Control.error "%s" msg)

(* Split buffered control bytes into complete lines, keeping the final
   partial line buffered.  A line may be no longer than a wire frame
   ([Wire.max_payload]); past that the client gets an error and the
   connection is closed, so a client that never sends a newline holds
   at most that much of the daemon's memory. *)
and feed_ctl t conn buf data =
  let n = String.length data in
  let rec go start =
    let stop = match String.index_from_opt data start '\n' with Some i -> i | None -> n in
    if Buffer.length buf + (stop - start) > Wire.max_payload then begin
      send_line t conn (Control.error "line too long");
      close_conn t conn
    end
    else begin
      Buffer.add_substring buf data start (stop - start);
      if stop < n then begin
        let line = Buffer.contents buf in
        Buffer.clear buf;
        handle_line t conn line;
        if conn.live then go (stop + 1)
      end
    end
  in
  go 0

and ingest t conn data =
  match conn.mode with
  | Peer dec ->
    Wire.feed dec data;
    drain_frames t conn dec
  | Ctl buf -> feed_ctl t conn buf data
  | Sniffing seen ->
    let seen = seen ^ data in
    if String.length seen < 4 then conn.mode <- Sniffing seen
    else if String.equal (String.sub seen 0 4) Wire.magic then begin
      let dec = Wire.decoder () in
      conn.mode <- Peer dec;
      Wire.feed dec (String.sub seen 4 (String.length seen - 4));
      drain_frames t conn dec
    end
    else begin
      let buf = Buffer.create 256 in
      conn.mode <- Ctl buf;
      feed_ctl t conn buf seen
    end

and on_conn_readable t conn () =
  (match Transport.recv conn.fd with
  | `Retry -> ()
  | `Eof -> close_conn t conn
  | `Data data -> ingest t conn data);
  settle t.calls t.tracing

and watch_conn t conn = Wallclock.on_readable t.loop conn.fd (on_conn_readable t conn)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let on_accept t () =
  match Transport.accept t.listen_fd with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    let conn = { fd; peer_name = Printf.sprintf "conn#%d" (Hashtbl.hash fd); mode = Sniffing ""; live = true } in
    t.conns <- conn :: t.conns;
    watch_conn t conn

let create ?(n = 34.0) ?(c = 20.0) ?trace_path ?(log = fun _ -> ()) ~listener () =
  let listen_fd, bound_addr = listener in
  (* a peer vanishing mid-write must surface as EPIPE, not kill the
     process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let loop = Wallclock.create () in
  let calls = Hashtbl.create 16 in
  let tracing =
    { out = Option.map (fun path -> (path, open_out path)) trace_path; entries = 0 }
  in
  (* [Wallclock.driver], plus a drain after each protocol timer; every
     call's driver shares the one clock and schedule *)
  let now () = Wallclock.now loop in
  let schedule ~delay thunk =
    Wallclock.after loop ~delay (fun () ->
        thunk ();
        settle calls tracing)
  in
  let t =
    {
      loop;
      make_driver = Timed.create_external ~now ~schedule ~n ~c;
      tracing;
      listen_fd;
      bound = bound_addr;
      calls;
      bridges = Hashtbl.create 16;
      conns = [];
      down = false;
      log;
    }
  in
  Wallclock.on_readable loop listen_fd (on_accept t);
  logf t "listening on %s" (Transport.addr_to_string bound_addr);
  t

(* [shutdown] drains last, so the bracket's closing drain is empty
   unless something emits after it. *)
let run t =
  let (), rest =
    Trace.recording_packed (fun () ->
        Trace.set_clock (fun () -> Wallclock.now t.loop);
        Wallclock.run t.loop;
        shutdown t)
  in
  absorb t.calls t.tracing rest
