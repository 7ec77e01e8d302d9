(* Tests for the daemon subsystem (mediactl.daemon): the binary wire
   codec (qcheck round-trip and malformed-input rejection), the
   control-plane grammar, transport addresses, the wall-clock engine —
   including a full session booted on it through [Session.boot_external]
   — and live in-process daemons serving calls over real unix sockets:
   local and bridged calls judged satisfied by each daemon's Fig. 5
   monitors, the JSONL trace a daemon streams as it drains, and calls
   that neither another call's protocol error nor a stray wire peer
   can reach. *)

open Mediactl_types
open Mediactl_core
open Mediactl_runtime
open Mediactl_apps
module Wire = Mediactl_daemon_core.Wire
module Control = Mediactl_daemon_core.Control
module Transport = Mediactl_daemon_core.Transport
module Wallclock = Mediactl_daemon_core.Wallclock
module Daemon = Mediactl_daemon_core.Daemon
module Call = Mediactl_daemon_core.Call
module Rng = Mediactl_sim.Rng

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

(* --- generators ------------------------------------------------------- *)

let gen_kind =
  QCheck2.Gen.oneofl [ Semantics.Open_end; Semantics.Close_end; Semantics.Hold_end ]

let gen_name =
  QCheck2.Gen.(map (fun s -> "b" ^ s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 11)))

let gen_addr =
  QCheck2.Gen.(
    map2
      (fun host port -> Address.v host port)
      (oneofl [ "10.0.0.1"; "host.example"; "::1" ])
      (int_range 1 65535))

(* distinct codecs, best first: a nonempty prefix of a shuffle *)
let gen_codecs =
  QCheck2.Gen.(
    map2
      (fun l n -> List.filteri (fun i _ -> i < n) l)
      (shuffle_l Codec.all)
      (int_range 1 (List.length Codec.all)))

let gen_desc =
  QCheck2.Gen.(
    bind (tup4 gen_name (int_range 0 0xffff) gen_addr bool) (fun (owner, version, addr, mute) ->
        if mute then return (Descriptor.no_media ~owner ~version addr)
        else map (fun codecs -> Descriptor.make ~owner ~version addr codecs) gen_codecs))

let gen_sel =
  QCheck2.Gen.(
    map
      (fun ((owner, version, sender), choice) ->
        Selector.make ~responds_to:(owner, version) ~sender choice)
      (pair
         (tup3 gen_name (int_range 0 0xffff) gen_addr)
         (oneof
            [ return Selector.No_media; map (fun c -> Selector.Chosen c) (oneofl Codec.all) ])))

let gen_medium = QCheck2.Gen.oneofl [ Medium.Audio; Medium.Video; Medium.Text; Medium.Audio_video ]

let gen_signal =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun m d -> Signal.Open (m, d)) gen_medium gen_desc;
        map (fun d -> Signal.Oack d) gen_desc;
        return Signal.Close;
        return Signal.Closeack;
        map (fun d -> Signal.Describe d) gen_desc;
        map (fun s -> Signal.Select s) gen_sel;
      ])

let gen_frame =
  QCheck2.Gen.(
    oneof
      [
        map3
          (fun chan origin accept -> Wire.Hello { chan; origin; accept })
          gen_name gen_kind gen_kind;
        map3 (fun chan tun signal -> Wire.Signal_f { chan; tun; signal }) gen_name (int_range 0 7)
          gen_signal;
        map (fun chan -> Wire.Bye { chan }) gen_name;
      ])

let frame_print f = Format.asprintf "%a" Wire.pp f

(* --- wire codec: round trip ------------------------------------------- *)

(* encode, then feed the bytes back through the incremental decoder in
   arbitrary chunkings: the same frames come out, in order, and no
   bytes are left buffered. *)
let prop_wire_roundtrip =
  QCheck2.Test.make ~name:"wire: decode (encode frames) = frames under any chunking" ~count:300
    ~print:(fun (frames, _) -> String.concat "; " (List.map frame_print frames))
    QCheck2.Gen.(pair (list_size (int_range 1 5) gen_frame) (int_range 1 13))
    (fun (frames, chunk) ->
      let bytes = String.concat "" (List.map Wire.encode frames) in
      let dec = Wire.decoder () in
      let i = ref 0 in
      while !i < String.length bytes do
        let len = min chunk (String.length bytes - !i) in
        Wire.feed dec (String.sub bytes !i len);
        i := !i + len
      done;
      let rec drain acc =
        match Wire.next dec with
        | Some (Ok f) -> drain (f :: acc)
        | Some (Error e) -> failwith ("decoder error: " ^ e)
        | None -> List.rev acc
      in
      let out = drain [] in
      List.length out = List.length frames
      && List.for_all2 Wire.equal out frames
      && Wire.buffered dec = 0)

(* any strict prefix of a valid encoding yields neither a frame nor an
   error: the decoder just waits for the rest *)
let prop_wire_truncation =
  QCheck2.Test.make ~name:"wire: every strict prefix is incomplete, not an error" ~count:200
    ~print:frame_print gen_frame (fun frame ->
      let bytes = Wire.encode frame in
      let ok = ref true in
      for n = 0 to String.length bytes - 1 do
        let dec = Wire.decoder () in
        Wire.feed dec (String.sub bytes 0 n);
        match Wire.next dec with
        | None -> ()
        | Some _ -> ok := false
      done;
      !ok)

(* flipping the version or tag byte of a valid frame is rejected *)
let prop_wire_garbage =
  QCheck2.Test.make ~name:"wire: corrupted version/tag byte is rejected" ~count:200
    ~print:frame_print gen_frame (fun frame ->
      let bytes = Bytes.of_string (Wire.encode frame) in
      (* byte 4 is the payload's version byte, byte 5 its tag *)
      Bytes.set bytes 4 '\xee';
      let dec = Wire.decoder () in
      Wire.feed dec (Bytes.to_string bytes);
      match Wire.next dec with
      | Some (Error _) -> true
      | Some (Ok _) | None -> false)

let test_wire_decoder_errors_sticky () =
  let dec = Wire.decoder () in
  (* an impossible length prefix (> max_payload) kills the decoder *)
  Wire.feed dec "\xff\xff\xff\xff";
  (match Wire.next dec with
  | Some (Error _) -> ()
  | Some (Ok _) | None -> Alcotest.fail "oversized length accepted");
  (* ... and it stays dead even when valid bytes follow *)
  Wire.feed dec (Wire.encode (Wire.Bye { chan = "x" }));
  check tbool "sticky error" true
    (match Wire.next dec with Some (Error _) -> true | Some (Ok _) | None -> false)

let test_wire_trailing_bytes_rejected () =
  let payload_of frame =
    let s = Wire.encode frame in
    String.sub s 4 (String.length s - 4)
  in
  let p = payload_of (Wire.Bye { chan = "x" }) ^ "\x00" in
  check tbool "trailing byte rejected" true (Result.is_error (Wire.decode_payload p))

(* --- control grammar --------------------------------------------------- *)

let test_control_roundtrip () =
  let reqs =
    [
      Control.Ping;
      Control.Create { id = "c1"; left = Semantics.Open_end; right = Semantics.Hold_end };
      Control.Dial
        {
          id = "c2";
          addr = Transport.Tcp ("127.0.0.1", 7040);
          left = Semantics.Open_end;
          right = Semantics.Close_end;
        };
      Control.Hold "c1";
      Control.Resume "c1";
      Control.Teardown "c1";
      Control.Status None;
      Control.Status (Some "c1");
      Control.Wait { id = "c1"; what = `Flowing; timeout_ms = 1500.0 };
      Control.Wait { id = "c1"; what = `Closed; timeout_ms = 100.0 };
      Control.Quit;
    ]
  in
  List.iter
    (fun req ->
      let line = Control.render req in
      match Control.parse line with
      | Ok req' -> check tbool line true (req = req')
      | Error e -> Alcotest.fail (line ^ ": " ^ e))
    reqs

let test_control_rejects_junk () =
  List.iter
    (fun line -> check tbool line true (Result.is_error (Control.parse line)))
    [
      "FROB c1"; "CREATE"; "CREATE c1 open sideways"; "WAIT c1 flowing not-a-number";
      "WAIT c1 flowing inf"; "WAIT c1 flowing infinity"; "WAIT c1 flowing 1e400"; "DIAL c1";
    ]

let test_control_response_shapes () =
  check tbool "ok" true (Control.is_ok (Control.ok "fine"));
  check tbool "err" false (Control.is_ok (Control.error "nope"));
  check tbool "call lines are not final" false (Control.final_line "CALL c1 local ...");
  check tbool "ok lines are final" true (Control.final_line (Control.ok "done"))

(* --- transport addresses ----------------------------------------------- *)

let test_addr_parse () =
  (match Transport.addr_of_string "unix:/tmp/x.sock" with
  | Ok (Transport.Unix_sock p) -> check tstr "unix path" "/tmp/x.sock" p
  | Ok (Transport.Tcp _) | Error _ -> Alcotest.fail "unix: did not parse");
  (match Transport.addr_of_string "tcp:::1:7040" with
  | Ok (Transport.Tcp (h, p)) ->
    check tstr "v6 host" "::1" h;
    check tint "port" 7040 p
  | Ok (Transport.Unix_sock _) | Error _ -> Alcotest.fail "tcp v6 did not parse");
  List.iter
    (fun s -> check tbool s true (Result.is_error (Transport.addr_of_string s)))
    [ "tcp:localhost"; "tcp:localhost:war"; "sctp:foo"; "unix:"; "" ]

(* --- wall-clock engine -------------------------------------------------- *)

let test_wallclock_timer_order () =
  let loop = Wallclock.create () in
  let fired = ref [] in
  let note tag () = fired := tag :: !fired in
  Wallclock.after loop ~delay:30.0 (note "c");
  Wallclock.after loop ~delay:5.0 (note "a");
  Wallclock.after loop ~delay:12.0 (note "b");
  Wallclock.run loop;
  check tbool "delay order" true (List.rev !fired = [ "a"; "b"; "c" ]);
  check tint "no timers left" 0 (Wallclock.pending_timers loop)

let test_wallclock_stop () =
  let loop = Wallclock.create () in
  let late = ref false in
  Wallclock.after loop ~delay:5.0 (fun () -> Wallclock.stop loop);
  Wallclock.after loop ~delay:10_000.0 (fun () -> late := true);
  Wallclock.run loop;
  check tbool "stopped before the late timer" false !late

(* [Unix.select] fails with EINVAL on a descriptor numbered 1024 or
   more, which a daemon with many connections is given.  The loop must
   serve one, and keep firing its timers: the read end of a pipe is
   moved onto descriptor 1100 (on Unix a [file_descr] is its number). *)
let test_wallclock_high_fd () =
  let r, w = Unix.pipe ~cloexec:true () in
  let high : Unix.file_descr = Obj.magic 1100 in
  Unix.dup2 ~cloexec:true r high;
  Unix.close r;
  let loop = Wallclock.create () in
  let read = ref false and ticks = ref 0 in
  Wallclock.on_readable loop high (fun () ->
      ignore (Unix.read high (Bytes.create 1) 0 1);
      read := true;
      Wallclock.remove_fd loop high);
  (* ticks every 2 ms until the pipe has been read and five have fired,
     giving up after a thousand *)
  let rec tick () =
    incr ticks;
    if (!read && !ticks >= 5) || !ticks >= 1000 then Wallclock.stop loop
    else Wallclock.after loop ~delay:2.0 tick
  in
  Wallclock.after loop ~delay:2.0 tick;
  Wallclock.after loop ~delay:3.0 (fun () -> ignore (Unix.write_substring w "x" 0 1));
  Fun.protect
    ~finally:(fun () ->
      Unix.close high;
      Unix.close w)
    (fun () -> Wallclock.run loop);
  check tbool "the callback on descriptor 1100 ran" true !read;
  check tbool "timers kept firing" true (!ticks >= 5 && !ticks < 1000)

(* A whole session — the simulator's Pathlab open/open handshake —
   booted onto the wall clock through [Session.boot_external]: the same
   boot closure, goals, and monitor, real time instead of virtual. *)
let test_session_on_wallclock () =
  let loop = Wallclock.create () in
  let session =
    Session.create ~id:1 ~scenario:"wallclock-open-open" ~rng:(Rng.create 7)
      ~boot:(fun s ->
        let sim = Session.sim s in
        Timed.apply sim (Pathlab.engage_left Semantics.Open_end);
        Timed.apply sim (Pathlab.engage_right Semantics.Open_end ~flowlinks:0))
      (fun () -> Pathlab.topology ())
  in
  let driver = Session.boot_external session ~make_driver:(Wallclock.driver ~n:1.0 ~c:1.0 loop) in
  let flowed = ref false in
  Timed.when_true driver (Pathlab.both_flowing ~flowlinks:0) (fun _ ->
      flowed := true;
      Wallclock.stop loop);
  Wallclock.after loop ~delay:5_000.0 (fun () -> Wallclock.stop loop);
  Wallclock.run loop;
  check tbool "bothFlowing reached on the wall clock" true !flowed

(* --- live daemons over real unix sockets --------------------------------- *)

let fresh_sock () =
  let path = Filename.temp_file "mediactl_test" ".sock" in
  Unix.unlink path;
  path

let listen_on path = Transport.listen (Transport.Unix_sock path)

(* Call [f] on every complete line the daemon sends on [fd]. *)
let on_lines loop fd f =
  let pending = Buffer.create 64 in
  Wallclock.on_readable loop fd (fun () ->
      match Transport.recv fd with
      | `Retry -> ()
      | `Eof -> Wallclock.remove_fd loop fd
      | `Data data ->
        String.iter
          (fun c ->
            if c = '\n' then begin
              f (Buffer.contents pending);
              Buffer.clear pending
            end
            else Buffer.add_char pending c)
          data)

(* A control client riding [loop]: each request of [script] is sent
   once the final line answering the previous one arrives, and
   [finally] runs once after the last.  Returns the CALL lines and the
   failed final lines, newest first. *)
let scripted_client ?(finally = fun () -> ()) loop fd script =
  let script = ref script and calls = ref [] and failures = ref [] and finished = ref false in
  let next () =
    match !script with
    | req :: rest ->
      script := rest;
      Transport.send_all fd (Control.render req ^ "\n")
    | [] ->
      if not !finished then begin
        finished := true;
        finally ()
      end
  in
  on_lines loop fd (fun line ->
      if Control.final_line line then begin
        if not (Control.is_ok line) then failures := line :: !failures;
        next ()
      end
      else calls := line :: !calls);
  next ();
  (calls, failures)

let satisfied line =
  let n = String.length line in
  n >= 9 && String.equal (String.sub line (n - 9) 9) "satisfied"

(* One process, one loop: the daemon serves a real unix socket, and the
   test's scripted control client rides the same Wallclock loop —
   [Daemon.run] drives both sides, so the whole lifecycle (create,
   wait-flowing, hold, resume, teardown, wait-closed, status, quit)
   crosses genuine socket I/O and ends with the monitor's verdict. *)
let test_live_daemon_lifecycle () =
  let path = fresh_sock () in
  let d = Daemon.create ~n:2.0 ~c:1.0 ~listener:(listen_on path) () in
  let loop = Daemon.loop d in
  let fd = Transport.connect (Transport.Unix_sock path) in
  let calls, failures =
    scripted_client loop fd
      [
        Control.Create { id = "t1"; left = Semantics.Open_end; right = Semantics.Open_end };
        Control.Wait { id = "t1"; what = `Flowing; timeout_ms = 5000.0 };
        Control.Hold "t1";
        Control.Resume "t1";
        Control.Wait { id = "t1"; what = `Flowing; timeout_ms = 5000.0 };
        Control.Teardown "t1";
        Control.Wait { id = "t1"; what = `Closed; timeout_ms = 5000.0 };
        Control.Status (Some "t1");
        Control.Quit;
      ]
  in
  Daemon.run d;
  Transport.close_quiet fd;
  check tbool "every request answered OK" true (!failures = []);
  match !calls with
  | status :: _ ->
    check tbool (Printf.sprintf "final status is satisfied: %s" status) true (satisfied status)
  | [] -> Alcotest.fail "no CALL status line seen"

(* A call bridged between two daemons in one process: daemon B runs on
   a second domain, with its own trace context, and the test's client
   rides daemon A's loop.  Each daemon judges the call from its own
   recording, in which the far end is a proxy whose receives of the
   signals shipped to it stay pending until the far end's replies
   order them — so both verdicts exercise the pending-receive path. *)
let test_bridged_call_in_process () =
  let a_path = fresh_sock () and b_path = fresh_sock () in
  let a = Daemon.create ~n:2.0 ~c:1.0 ~listener:(listen_on a_path) () in
  let b = Daemon.create ~n:2.0 ~c:1.0 ~listener:(listen_on b_path) () in
  let b_domain = Domain.spawn (fun () -> Daemon.run b) in
  let loop = Daemon.loop a in
  let to_a = Transport.connect (Transport.Unix_sock a_path) in
  let to_b = Transport.connect (Transport.Unix_sock b_path) in
  let id = "br1" in
  let wait what = Control.Wait { id; what; timeout_ms = 5000.0 } in
  let quit fd = Transport.send_all fd (Control.render Control.Quit ^ "\n") in
  let b_seen = ref None in
  (* B is asked once A's script is done, after B's own end has closed
     too: A's end closing does not wait for B's to hear the last
     closeack.  The last word goes to A. *)
  let ask_b () =
    b_seen :=
      Some
        (scripted_client loop to_b
           ~finally:(fun () -> quit to_a)
           [ wait `Closed; Control.Status (Some id); Control.Quit ])
  in
  let a_calls, a_failures =
    scripted_client loop to_a ~finally:ask_b
      [
        Control.Dial
          {
            id;
            addr = Transport.Unix_sock b_path;
            left = Semantics.Open_end;
            right = Semantics.Open_end;
          };
        wait `Flowing;
        Control.Hold id;
        Control.Resume id;
        wait `Flowing;
        Control.Teardown id;
        wait `Closed;
        Control.Status (Some id);
      ]
  in
  (* a stuck run fails the test instead of hanging it *)
  Wallclock.after loop ~delay:20_000.0 (fun () ->
      quit to_b;
      Daemon.shutdown a);
  Daemon.run a;
  Domain.join b_domain;
  Transport.close_quiet to_a;
  Transport.close_quiet to_b;
  check (Alcotest.list tstr) "every request to A answered OK" [] !a_failures;
  let b_calls, b_failures =
    match !b_seen with Some r -> r | None -> Alcotest.fail "daemon B was never asked"
  in
  check (Alcotest.list tstr) "every request to B answered OK" [] !b_failures;
  List.iter
    (fun (side, calls) ->
      match calls with
      | [ status ] ->
        check tbool (Printf.sprintf "%s: status is satisfied: %s" side status) true
          (satisfied status)
      | _ -> Alcotest.fail (side ^ ": expected one CALL status line"))
    [ ("origin", !a_calls); ("acceptor", !b_calls) ]

(* A daemon with [~trace_path] serving two calls writes its trace as
   it drains: one JSON object per line, numbered 0..n-1 with no gap at
   the many segment boundaries, n being the count it logs. *)
let test_streamed_trace () =
  let path = fresh_sock () in
  let trace_path = Filename.temp_file "mediactl_test" ".jsonl" in
  let logged = ref [] in
  let d =
    Daemon.create ~n:2.0 ~c:1.0 ~trace_path
      ~log:(fun line -> logged := line :: !logged)
      ~listener:(listen_on path) ()
  in
  let loop = Daemon.loop d in
  let fd = Transport.connect (Transport.Unix_sock path) in
  let create id = Control.Create { id; left = Semantics.Open_end; right = Semantics.Open_end } in
  let wait id what = Control.Wait { id; what; timeout_ms = 5000.0 } in
  let calls, failures =
    scripted_client loop fd
      [
        create "s1";
        create "s2";
        wait "s1" `Flowing;
        wait "s2" `Flowing;
        Control.Status None;
        Control.Teardown "s1";
        Control.Teardown "s2";
        wait "s1" `Closed;
        wait "s2" `Closed;
        Control.Status None;
        Control.Quit;
      ]
  in
  Daemon.run d;
  Transport.close_quiet fd;
  check (Alcotest.list tstr) "every request answered OK" [] !failures;
  (* flowing, then closed: a monitor that saw nothing would read the
     first as violated *)
  check tint "two calls, satisfied twice each" 4 (List.length (List.filter satisfied !calls));
  let lines = In_channel.with_open_bin trace_path In_channel.input_lines in
  Sys.remove trace_path;
  let logged_count =
    List.find_map (fun l -> Scanf.sscanf_opt l "trace: %d events -> %s" (fun n _ -> n)) !logged
  in
  check (Alcotest.option tint) "the log counts every line" (Some (List.length lines)) logged_count;
  check tbool "a trace was recorded" true (List.length lines > 0);
  List.iteri
    (fun i line ->
      let n = String.length line in
      check tbool (Printf.sprintf "line %d is one JSON object" i) true
        (n > 2 && line.[0] = '{' && line.[n - 1] = '}');
      check (Alcotest.option tint) "seq runs 0..n-1" (Some i)
        (Scanf.sscanf_opt line "{\"seq\":%d," Fun.id))
    lines

(* A STATUS pipelined behind a CREATE in one read is answered after
   the daemon has drained what the CREATE recorded: the call's monitor
   has seen both ends' opens, still in flight. *)
let test_status_sees_pipelined_requests () =
  let path = fresh_sock () in
  let d = Daemon.create ~n:2.0 ~c:1.0 ~listener:(listen_on path) () in
  let fd = Transport.connect (Transport.Unix_sock path) in
  Transport.send_all fd
    (String.concat ""
       (List.map
          (fun req -> Control.render req ^ "\n")
          [
            Control.Create { id = "p1"; left = Semantics.Open_end; right = Semantics.Open_end };
            Control.Status (Some "p1");
            Control.Quit;
          ]));
  Daemon.run d;
  (* all three were answered in the one callback that stopped the
     loop; the daemon has closed its end, so this reads to EOF *)
  let replies = In_channel.input_all (Unix.in_channel_of_descr fd) in
  Transport.close_quiet fd;
  match
    List.filter
      (fun l -> l <> "" && not (Control.final_line l))
      (String.split_on_char '\n' replies)
  with
  | [ status ] ->
    check tbool (Printf.sprintf "status judges the create's signals: %s" status) true
      (String.ends_with ~suffix:"undetermined at cutoff: signals still in flight" status)
  | _ -> Alcotest.fail "expected one CALL status line"

(* A WAIT that times out on a condition that never comes true (an
   open end facing a closed one never flows) must not leave its watch
   on the call's driver: the words the driver reaches after 500 such
   WAITs stay within a small bound of the words after one. *)
let test_timed_out_waits_drop_their_watches () =
  let driver_words waits =
    let path = fresh_sock () in
    let d = Daemon.create ~n:2.0 ~c:1.0 ~listener:(listen_on path) () in
    let loop = Daemon.loop d in
    let fd = Transport.connect (Transport.Unix_sock path) in
    let words = ref 0 in
    let _, failures =
      scripted_client loop fd
        ~finally:(fun () ->
          (* The client rides the daemon's loop: unhook it first, so
             the lines it kept are not counted as the daemon's. *)
          Wallclock.remove_fd loop fd;
          (match Daemon.calls d with
          | [ call ] -> words := Obj.reachable_words (Obj.repr (Call.driver call))
          | _ -> Alcotest.fail "expected one call");
          Daemon.shutdown d)
        ((Control.Create { id = "w1"; left = Semantics.Open_end; right = Semantics.Close_end }
         :: List.init waits (fun _ ->
                Control.Wait { id = "w1"; what = `Flowing; timeout_ms = 1.0 }))
        @ [ Control.Ping ])
    in
    Daemon.run d;
    Transport.close_quiet fd;
    check tint "every WAIT timed out" waits (List.length !failures);
    !words
  in
  let one = driver_words 1 in
  let many = driver_words 500 in
  check tbool
    (Printf.sprintf "%d words after 500 timed-out WAITs, %d after 1 (at most 256 more)" many one)
    true (many <= one + 256)

(* A raw wire peer: the magic, then [frames], in one write. *)
let wire_peer path frames =
  let fd = Transport.connect (Transport.Unix_sock path) in
  Transport.send_all fd (Wire.magic ^ String.concat "" (List.map Wire.encode frames));
  fd

(* One call's protocol error stalls no other call: a wire peer bridges
   call [b] here and answers its open with a closeack the open end
   cannot take, and a control client then creates local call [a], which
   must still reach flowing, while [b] alone is judged violated. *)
let test_protocol_error_stalls_no_other_call () =
  let path = fresh_sock () in
  let d = Daemon.create ~n:2.0 ~c:1.0 ~listener:(listen_on path) () in
  let rogue =
    wire_peer path
      [
        Wire.Hello { chan = "b"; origin = Semantics.Open_end; accept = Semantics.Open_end };
        Wire.Signal_f { chan = "b"; tun = 0; signal = Signal.Closeack };
      ]
  in
  let fd = Transport.connect (Transport.Unix_sock path) in
  let calls, failures =
    scripted_client (Daemon.loop d) fd
      [
        Control.Create { id = "a"; left = Semantics.Open_end; right = Semantics.Open_end };
        Control.Wait { id = "a"; what = `Flowing; timeout_ms = 2000.0 };
        Control.Status None;
        Control.Quit;
      ]
  in
  Daemon.run d;
  Transport.close_quiet fd;
  Transport.close_quiet rogue;
  check (Alcotest.list tstr) "every request answered OK" [] !failures;
  match List.rev !calls with
  | [ a; b ] ->
    check tstr "a flows" "CALL a local open/open flowing/flowing satisfied" a;
    check tbool (Printf.sprintf "b alone is violated: %s" b) true
      (String.starts_with ~prefix:"CALL b acceptor open/open closed/opening VIOLATED: " b
      && String.ends_with ~suffix:"unexpected closeack in opening" b)
  | lines -> Alcotest.fail ("expected two CALL lines, got: " ^ String.concat " | " lines)

(* A wire connection acts only on the calls bridged over it: a
   connection that sends a Bye for flowing local call [a] leaves it
   flowing.  The STATUS goes out on a connection the daemon accepts
   after the rogue one, so the Bye has been read by then. *)
let test_wire_peer_reaches_only_its_calls () =
  let path = fresh_sock () in
  let d = Daemon.create ~n:2.0 ~c:1.0 ~listener:(listen_on path) () in
  let loop = Daemon.loop d in
  let fd = Transport.connect (Transport.Unix_sock path) in
  let rogue = ref None and status = ref None in
  let ask () =
    rogue := Some (wire_peer path [ Wire.Bye { chan = "a" } ]);
    let other = Transport.connect (Transport.Unix_sock path) in
    status :=
      Some (other, scripted_client loop other [ Control.Status (Some "a"); Control.Quit ])
  in
  let _, failures =
    scripted_client loop fd ~finally:ask
      [
        Control.Create { id = "a"; left = Semantics.Open_end; right = Semantics.Open_end };
        Control.Wait { id = "a"; what = `Flowing; timeout_ms = 5000.0 };
      ]
  in
  Wallclock.after loop ~delay:10_000.0 (fun () -> Daemon.shutdown d);
  Daemon.run d;
  List.iter Transport.close_quiet (fd :: Option.to_list !rogue);
  check (Alcotest.list tstr) "every request answered OK" [] !failures;
  match !status with
  | Some (other, (calls, failures)) ->
    Transport.close_quiet other;
    check (Alcotest.list tstr) "status answered OK" [] !failures;
    check (Alcotest.list tstr) "a still flows"
      [ "CALL a local open/open flowing/flowing satisfied" ]
      !calls
  | None -> Alcotest.fail "status never asked"

(* A control client that streams 1 MiB with no newline is told its line
   is too long and disconnected once the line passes the wire frame
   cap, instead of growing the daemon's buffer without bound; a second
   connection is still answered. *)
let test_overlong_control_line () =
  let path = fresh_sock () in
  let d = Daemon.create ~listener:(listen_on path) () in
  let loop = Daemon.loop d in
  let flood = Transport.connect (Transport.Unix_sock path) in
  let other = Transport.connect (Transport.Unix_sock path) in
  Unix.set_nonblock flood;
  let chunk = String.make 4096 'x' in
  let sent = ref 0 and refused = ref None and pong = ref None in
  let rec pump () =
    if !sent < 1 lsl 20 then
      match Unix.write_substring flood chunk 0 (String.length chunk) with
      | n ->
        sent := !sent + n;
        Wallclock.after loop ~delay:0.0 pump
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Wallclock.after loop ~delay:1.0 pump
      | exception Unix.Unix_error _ -> () (* the daemon hung up *)
  in
  on_lines loop flood (fun line ->
      if Option.is_none !refused then begin
        refused := Some line;
        Transport.send_all other "PING\n"
      end);
  on_lines loop other (fun line ->
      if Option.is_none !pong then begin
        pong := Some line;
        Transport.send_all other "QUIT\n"
      end);
  Wallclock.after loop ~delay:10_000.0 (fun () -> Daemon.shutdown d);
  pump ();
  Daemon.run d;
  Transport.close_quiet flood;
  Transport.close_quiet other;
  check (Alcotest.option tstr) "flooding client refused" (Some "ERR line too long") !refused;
  check tbool "flooding client disconnected before 1 MiB" true (!sent < 1 lsl 20);
  check tbool "other connection still answered" true
    (match !pong with Some line -> Control.is_ok line | None -> false)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "daemon"
    [
      ( "wire",
        qsuite [ prop_wire_roundtrip; prop_wire_truncation; prop_wire_garbage ]
        @ [
            Alcotest.test_case "decoder errors are sticky" `Quick test_wire_decoder_errors_sticky;
            Alcotest.test_case "trailing payload bytes rejected" `Quick
              test_wire_trailing_bytes_rejected;
          ] );
      ( "control",
        [
          Alcotest.test_case "render/parse round trip" `Quick test_control_roundtrip;
          Alcotest.test_case "junk is rejected" `Quick test_control_rejects_junk;
          Alcotest.test_case "response shapes" `Quick test_control_response_shapes;
        ] );
      ("transport", [ Alcotest.test_case "address grammar" `Quick test_addr_parse ]);
      ( "wallclock",
        [
          Alcotest.test_case "timers fire in delay order" `Quick test_wallclock_timer_order;
          Alcotest.test_case "stop ends the loop" `Quick test_wallclock_stop;
          Alcotest.test_case "a descriptor above 1024 is served" `Quick test_wallclock_high_fd;
          Alcotest.test_case "session boots on the wall clock" `Quick test_session_on_wallclock;
        ] );
      ( "live",
        [
          Alcotest.test_case "unix-socket lifecycle is satisfied" `Quick test_live_daemon_lifecycle;
          Alcotest.test_case "bridged call satisfied on both daemons" `Quick
            test_bridged_call_in_process;
          Alcotest.test_case "streamed trace is numbered without gaps" `Quick test_streamed_trace;
          Alcotest.test_case "status sees pipelined requests" `Quick
            test_status_sees_pipelined_requests;
          Alcotest.test_case "overlong control line is refused" `Quick test_overlong_control_line;
          Alcotest.test_case "timed-out waits drop their watches" `Quick
            test_timed_out_waits_drop_their_watches;
          Alcotest.test_case "protocol error stalls no other call" `Quick
            test_protocol_error_stalls_no_other_call;
          Alcotest.test_case "wire peer reaches only its calls" `Quick
            test_wire_peer_reaches_only_its_calls;
        ] );
    ]
