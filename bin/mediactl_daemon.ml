(* mediactl_daemon: serve the media-control plane on a socket.

   Examples:
     mediactl_daemon --listen unix:/tmp/mediactl.sock
     mediactl_daemon --listen tcp:127.0.0.1:7040 --trace run.jsonl -v
     mediactl_daemon --listen tcp:127.0.0.1:0      # ephemeral port, printed on stdout

   The daemon answers newline-ASCII control requests (see mediactl_ctl)
   and bridges calls to peer daemons over the binary wire protocol, on
   the same socket.  It runs until a QUIT request or SIGINT/SIGTERM. *)

open Cmdliner
open Mediactl_daemon_core

let serve listen_s trace n c verbose =
  match Transport.addr_of_string listen_s with
  | Error e ->
    prerr_endline e;
    2
  | Ok addr -> (
    match Transport.listen addr with
    | exception Unix.Unix_error (e, op, arg) ->
      Printf.eprintf "cannot listen on %s: %s(%s): %s\n" listen_s op arg (Unix.error_message e);
      1
    | listener ->
      let log =
        if verbose then fun s -> Printf.eprintf "[mediactl_daemon] %s\n%!" s
        else fun (_ : string) -> ()
      in
      let d = Daemon.create ?trace_path:trace ~n ~c ~log ~listener () in
      (* the bound address (with any kernel-chosen port resolved) goes to
         stdout so a script that asked for tcp:...:0 can learn it *)
      Printf.printf "listening %s\n%!" (Transport.addr_to_string (Daemon.bound d));
      let request_stop _ = Wallclock.stop (Daemon.loop d) in
      Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
      Daemon.run d;
      0)

let listen_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:"Address to serve: $(b,unix:PATH) or $(b,tcp:HOST:PORT) (port 0 for ephemeral).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write the daemon's full structured event trace as JSON lines, appended as it runs.")

let n_arg =
  Arg.(value & opt float 34.0 & info [ "n" ] ~doc:"Network latency parameter, ms (paper: 34).")

let c_arg =
  Arg.(value & opt float 20.0 & info [ "c" ] ~doc:"Compute latency parameter, ms (paper: 20).")

let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log daemon events to stderr.")

let cmd =
  let doc = "serve the compositional media-control plane on a socket" in
  Cmd.v
    (Cmd.info "mediactl_daemon" ~doc)
    Term.(const serve $ listen_arg $ trace_arg $ n_arg $ c_arg $ verbose_arg)

let () = exit (Cmd.eval' cmd)
