(* mediactl_ctl: drive a running mediactl_daemon over its control socket.

   Examples:
     mediactl_ctl ping --to unix:/tmp/mediactl.sock
     mediactl_ctl create c1 open open --to tcp:127.0.0.1:7040
     mediactl_ctl wait c1 flowing --to tcp:127.0.0.1:7040 --timeout 5000
     mediactl_ctl status --to tcp:127.0.0.1:7040
     mediactl_ctl drive e2e --to unix:/tmp/mediactl.sock --quit

   Every subcommand sends one request and prints the daemon's response
   lines; the exit status is 0 iff the final line is OK.  $(b,drive)
   scripts a whole call lifecycle — create (or dial), wait flowing,
   hold, resume, teardown, wait closed — and succeeds only if the
   final STATUS verdict is "satisfied". *)

open Cmdliner
open Mediactl_daemon_core
module Semantics = Mediactl_core.Semantics

let one_shot addr req =
  match Control.connect addr with
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "cannot connect to %s: %s\n" (Transport.addr_to_string addr)
      (Unix.error_message e);
    1
  | cl -> (
    match Control.request cl req with
    | Error e ->
      prerr_endline e;
      1
    | Ok (lines, final) ->
      List.iter print_endline lines;
      print_endline final;
      if Control.is_ok final then 0 else 1)

(* ------------------------------------------------------------------ *)
(* drive: the scripted end-to-end lifecycle                            *)

exception Drive_failed of string

let drive_calls addr id via timeout_ms quit =
  let cl = Control.connect addr in
  let step req =
    match Control.request cl req with
    | Ok (lines, final) ->
      List.iter print_endline lines;
      print_endline final;
      if Control.is_ok final then (lines, final)
      else raise (Drive_failed (Printf.sprintf "%S answered: %s" (Control.render req) final))
    | Error e -> raise (Drive_failed e)
  in
  let wait what = Control.Wait { id; what; timeout_ms } in
  (match via with
  | None -> ignore (step (Control.Create { id; left = Semantics.Open_end; right = Semantics.Open_end }))
  | Some addr ->
    ignore (step (Control.Dial { id; addr; left = Semantics.Open_end; right = Semantics.Open_end })));
  ignore (step (wait `Flowing));
  ignore (step (Control.Hold id));
  (* let the hold handshake settle before resuming; the daemon's WAIT
     vocabulary has no "held" condition to block on *)
  Unix.sleepf 0.5;
  ignore (step (Control.Resume id));
  ignore (step (wait `Flowing));
  ignore (step (Control.Teardown id));
  ignore (step (wait `Closed));
  let call_lines, _ = step (Control.Status (Some id)) in
  if quit then ignore (step Control.Quit);
  let satisfied =
    List.exists
      (fun line ->
        let n = String.length line in
        n >= 9 && String.equal (String.sub line (n - 9) 9) "satisfied")
      call_lines
  in
  if satisfied then begin
    Printf.printf "drive %s: obligation satisfied\n" id;
    0
  end
  else begin
    Printf.eprintf "drive %s: final verdict is not satisfied\n" id;
    1
  end

let drive addr id via timeout_ms quit =
  match drive_calls addr id via timeout_ms quit with
  | code -> code
  | exception Drive_failed msg ->
    Printf.eprintf "drive %s failed: %s\n" id msg;
    1
  | exception Unix.Unix_error (e, op, _) ->
    Printf.eprintf "drive %s failed: %s: %s\n" id op (Unix.error_message e);
    1

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)

let addr_conv =
  Arg.conv
    ( (fun s -> Result.map_error (fun e -> `Msg e) (Transport.addr_of_string s)),
      Transport.pp_addr )

let to_arg =
  Arg.(
    required
    & opt (some addr_conv) None
    & info [ "to" ] ~docv:"ADDR" ~doc:"Daemon control address (unix:PATH or tcp:HOST:PORT).")

let kind_conv =
  Arg.enum
    [
      ("open", Semantics.Open_end); ("close", Semantics.Close_end); ("hold", Semantics.Hold_end);
    ]

let id_pos = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Call id.")

let timeout_arg =
  Arg.(
    value & opt float 10000.0
    & info [ "timeout" ] ~docv:"MS" ~doc:"WAIT timeout in milliseconds.")

let sub name doc term = Cmd.v (Cmd.info name ~doc) term

let ping_cmd =
  sub "ping" "check the daemon is alive" Term.(const (fun a -> one_shot a Control.Ping) $ to_arg)

let create_cmd =
  let left = Arg.(value & pos 1 kind_conv Semantics.Open_end & info [] ~docv:"LEFT") in
  let right = Arg.(value & pos 2 kind_conv Semantics.Open_end & info [] ~docv:"RIGHT") in
  sub "create" "create a local call (both ends in this daemon)"
    Term.(
      const (fun a id left right -> one_shot a (Control.Create { id; left; right }))
      $ to_arg $ id_pos $ left $ right)

let dial_cmd =
  let peer =
    Arg.(required & pos 1 (some addr_conv) None & info [] ~docv:"PEER" ~doc:"Peer daemon address.")
  in
  let left = Arg.(value & pos 2 kind_conv Semantics.Open_end & info [] ~docv:"LEFT") in
  let right = Arg.(value & pos 3 kind_conv Semantics.Open_end & info [] ~docv:"RIGHT") in
  sub "dial" "create a call bridged to a peer daemon"
    Term.(
      const (fun a id addr left right -> one_shot a (Control.Dial { id; addr; left; right }))
      $ to_arg $ id_pos $ peer $ left $ right)

let hold_cmd =
  sub "hold" "rebind the call's local end to a holdslot"
    Term.(const (fun a id -> one_shot a (Control.Hold id)) $ to_arg $ id_pos)

let resume_cmd =
  sub "resume" "rebind the call's local end to an openslot"
    Term.(const (fun a id -> one_shot a (Control.Resume id)) $ to_arg $ id_pos)

let teardown_cmd =
  sub "teardown" "drive the call closed (and its bridge down)"
    Term.(const (fun a id -> one_shot a (Control.Teardown id)) $ to_arg $ id_pos)

let status_cmd =
  let id = Arg.(value & pos 0 (some string) None & info [] ~docv:"ID") in
  sub "status" "list calls (or one call) with states and verdicts"
    Term.(const (fun a id -> one_shot a (Control.Status id)) $ to_arg $ id)

let wait_cmd =
  let what =
    Arg.(
      required
      & pos 1 (some (Arg.enum [ ("flowing", `Flowing); ("closed", `Closed) ])) None
      & info [] ~docv:"STATE")
  in
  sub "wait" "block until the call reaches a state (or timeout)"
    Term.(
      const (fun a id what timeout_ms -> one_shot a (Control.Wait { id; what; timeout_ms }))
      $ to_arg $ id_pos $ what $ timeout_arg)

let quit_cmd =
  sub "quit" "shut the daemon down" Term.(const (fun a -> one_shot a Control.Quit) $ to_arg)

let drive_cmd =
  let via =
    Arg.(
      value
      & opt (some addr_conv) None
      & info [ "via" ] ~docv:"PEER" ~doc:"Bridge the call to this peer daemon instead of locally.")
  in
  let quit = Arg.(value & flag & info [ "quit" ] ~doc:"Send QUIT after a successful run.") in
  sub "drive" "scripted end-to-end lifecycle: create/dial, flow, hold, resume, teardown"
    Term.(const drive $ to_arg $ id_pos $ via $ timeout_arg $ quit)

let cmd =
  let doc = "control a running mediactl_daemon" in
  Cmd.group (Cmd.info "mediactl_ctl" ~doc)
    [
      ping_cmd; create_cmd; dial_cmd; hold_cmd; resume_cmd; teardown_cmd; status_cmd; wait_cmd;
      quit_cmd; drive_cmd;
    ]

let () = exit (Cmd.eval' cmd)
