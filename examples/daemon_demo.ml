(* Two live daemons bridged over TCP: the section-VI protocol running
   on real sockets, end to end in one program.

   The parent binds two ephemeral TCP listeners, forks a daemon child
   on each, and then plays operator: it dials a call from daemon A
   whose far end lives in daemon B, holds and resumes it, tears it
   down, and finally asks BOTH daemons for their verdicts — each side
   ran its own Fig. 5 monitor over its own trace, so "satisfied" must
   appear twice.

     dune exec examples/daemon_demo.exe

   The same lifecycle against daemons in separate terminals:

     mediactl_daemon --listen tcp:127.0.0.1:7040 &
     mediactl_daemon --listen tcp:127.0.0.1:7041 &
     mediactl_ctl drive br1 --to tcp:127.0.0.1:7040 --via tcp:127.0.0.1:7041 *)

open Mediactl_daemon_core
module Semantics = Mediactl_core.Semantics

exception Demo_failed of string

(* Send one request; print and return the response lines.  Anything
   but a final OK aborts the demo. *)
let request cl name req =
  Printf.printf "  %s -> %s\n%!" name (Control.render req);
  match Control.request cl req with
  | Error e -> raise (Demo_failed (name ^ ": " ^ e))
  | Ok (lines, final) ->
    List.iter (fun line -> Printf.printf "  %s <- %s\n%!" name line) (lines @ [ final ]);
    if not (Control.is_ok final) then
      raise
        (Demo_failed (Printf.sprintf "%s answered %S to %S" name final (Control.render req)));
    lines

let satisfied line =
  let n = String.length line in
  n >= 9 && String.equal (String.sub line (n - 9) 9) "satisfied"

(* Bind in the parent (learning the kernel-chosen port), run the
   daemon in a forked child that owns the listener. *)
let spawn_daemon name =
  let listener, bound = Transport.listen (Transport.Tcp ("127.0.0.1", 0)) in
  match Unix.fork () with
  | 0 ->
    let d =
      Daemon.create ~n:10.0 ~c:5.0 ~listener:(listener, bound)
        ~log:(fun line -> Printf.printf "  [%s] %s\n%!" name line)
        ()
    in
    Daemon.run d;
    Stdlib.exit 0
  | pid ->
    Transport.close_quiet listener;
    (pid, bound)

let () =
  print_endline "daemon_demo: one call bridged between two live daemons over TCP";
  let pid_a, addr_a = spawn_daemon "A" in
  let pid_b, addr_b = spawn_daemon "B" in
  Printf.printf "daemon A at %s (pid %d), daemon B at %s (pid %d)\n%!"
    (Transport.addr_to_string addr_a) pid_a
    (Transport.addr_to_string addr_b) pid_b;
  let code =
    try
      let a = Control.connect addr_a in
      let wait what = Control.Wait { id = "br1"; what; timeout_ms = 10_000.0 } in
      ignore (request a "A" Control.Ping);
      print_endline "dialing br1: left end in A, right end in B, signals over the wire";
      ignore
        (request a "A"
           (Control.Dial
              { id = "br1"; addr = addr_b; left = Semantics.Open_end; right = Semantics.Open_end }));
      ignore (request a "A" (wait `Flowing));
      print_endline "holding, then resuming";
      ignore (request a "A" (Control.Hold "br1"));
      (* let the hold handshake settle; WAIT has no "held" condition *)
      Unix.sleepf 0.3;
      ignore (request a "A" (Control.Resume "br1"));
      ignore (request a "A" (wait `Flowing));
      print_endline "tearing down";
      ignore (request a "A" (Control.Teardown "br1"));
      ignore (request a "A" (wait `Closed));
      print_endline "each daemon's own monitor verdict over its own trace:";
      let calls_a = request a "A" (Control.Status (Some "br1")) in
      let b = Control.connect addr_b in
      let calls_b = request b "B" (Control.Status (Some "br1")) in
      ignore (request a "A" Control.Quit);
      ignore (request b "B" Control.Quit);
      Control.close a;
      Control.close b;
      let ok calls = List.exists satisfied calls in
      if ok calls_a && ok calls_b then begin
        print_endline "both sides: obligation satisfied";
        0
      end
      else begin
        print_endline "FAILED: a side did not report satisfied";
        1
      end
    with
    | Demo_failed msg ->
      Printf.eprintf "FAILED: %s\n" msg;
      1
    | Unix.Unix_error (e, op, _) ->
      Printf.eprintf "FAILED: %s: %s\n" op (Unix.error_message e);
      1
  in
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> Printf.eprintf "daemon pid %d exited abnormally\n" pid)
    [ pid_a; pid_b ];
  Stdlib.exit code
