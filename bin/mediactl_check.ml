(* mediactl_check: model-check signaling-path configurations.

   Examples:
     mediactl_check                            # the paper's 12 models
     mediactl_check --left open --right hold --flowlinks 1 --chaos 2
*)

open Cmdliner
open Mediactl_core
open Mediactl_mc

let kind_conv =
  let parse = function
    | "open" | "openslot" -> Ok Semantics.Open_end
    | "close" | "closeslot" -> Ok Semantics.Close_end
    | "hold" | "holdslot" -> Ok Semantics.Hold_end
    | s -> Error (`Msg (Printf.sprintf "unknown goal %S (use open|close|hold)" s))
  in
  let print ppf k = Semantics.pp_end_kind ppf k in
  Arg.conv (parse, print)

let left =
  Arg.(value & opt (some kind_conv) None & info [ "left" ] ~docv:"GOAL"
         ~doc:"Goal controlling the left path end (open|close|hold).")

let right =
  Arg.(value & opt (some kind_conv) None & info [ "right" ] ~docv:"GOAL"
         ~doc:"Goal controlling the right path end.")

let flowlinks =
  Arg.(value & opt int 0 & info [ "flowlinks" ] ~docv:"N" ~doc:"Interior flowlinks.")

let chaos =
  Arg.(value & opt int 1 & info [ "chaos" ] ~docv:"N"
         ~doc:"Chaos actions per goal object before it settles.")

let modifies =
  Arg.(value & opt int 1 & info [ "modifies" ] ~docv:"N" ~doc:"Mute changes per endpoint.")

let segment =
  Arg.(value & flag & info [ "segment" ]
         ~doc:"Check the section VIII-B segment lemma instead: the given number of                flowlinks under arbitrary protocol-legal environments at the cut points                (safety only).")

let losses =
  Arg.(value & opt int 0 & info [ "losses" ] ~docv:"N"
         ~doc:"Network-fault budget: signals the network may silently drop                (idempotent describe/select only, unless --unrestricted).")

let dups =
  Arg.(value & opt int 0 & info [ "dups" ] ~docv:"N"
         ~doc:"Network-fault budget: signals the network may deliver twice                (idempotent describe/select only, unless --unrestricted).")

let unrestricted =
  Arg.(value & flag & info [ "unrestricted" ]
         ~doc:"Allow faulting any signal, including the handshake signals —                demonstrates why the reliability layer (retransmission and                deduplication) is necessary.")

let parties =
  Arg.(value & opt int 0 & info [ "parties" ] ~docv:"N"
         ~doc:"Check an N-party conference star instead of a path: one leg per                party, fanned through --flowlinks interior flowlinks into a holding                mixer-bridge end. Each party runs the --party goal.")

let party =
  Arg.(value & opt kind_conv Semantics.Open_end & info [ "party" ] ~docv:"GOAL"
         ~doc:"Goal controlling every conference party (open|close|hold), with --parties.")

let max_states =
  Arg.(value & opt int 2_000_000 & info [ "max-states" ] ~docv:"N"
         ~doc:"Exploration cap; results are inconclusive beyond it.")

let jobs =
  Arg.(value & opt int (Domain.recommended_domain_count ()) & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Exploration domains. The default is the recommended domain count of this machine. \
               Every value prints the same output, state ids, counterexamples and capped runs \
               included; only wall-clock time changes.")

let run left right flowlinks chaos modifies max_states jobs segment losses dups unrestricted
    parties party =
  let faults = { Path_model.losses; dups; unrestricted } in
  let reports =
    match left, right with
    | _ when segment -> [ Check.run_segment ~max_states ~jobs ~flowlinks ~chaos () ]
    | _ when parties > 0 ->
      if parties < 2 then begin
        prerr_endline "--parties needs at least 2";
        exit 2
      end;
      (* A star too wide for the checker's per-state predicate bits is
         refused before anything is explored. *)
      (try
         [ Check.run ~max_states ~jobs
             (Path_model.conf_config ~faults ~flowlinks
                ~parties:(List.init parties (fun _ -> party))
                ~chaos ~modifies ()) ]
       with Invalid_argument msg ->
         prerr_endline msg;
         exit 2)
    | Some l, Some r ->
      [ Check.run ~max_states ~jobs
          (Path_model.path_config ~faults ~left:l ~right:r ~flowlinks ~chaos ~modifies ()) ]
    | None, None -> Check.run_standard ~max_states ~jobs ~faults ~chaos ~modifies ()
    | Some _, None | None, Some _ ->
      prerr_endline "specify both --left and --right, or neither (for the 12 standard models)";
      exit 2
  in
  List.iter
    (fun r ->
      Format.printf "%a@." Check.pp_report r;
      if not (Check.passed r) then Format.printf "%a@." Check.pp_counterexample r)
    reports;
  if List.for_all Check.passed reports then begin
    print_endline "all checks passed";
    0
  end
  else begin
    print_endline "CHECK FAILURES";
    1
  end

let cmd =
  let doc = "model-check compositional media-control signaling paths" in
  Cmd.v
    (Cmd.info "mediactl_check" ~doc)
    Term.(
      const run $ left $ right $ flowlinks $ chaos $ modifies $ max_states $ jobs $ segment
      $ losses $ dups $ unrestricted $ parties $ party)

let () = exit (Cmd.eval' cmd)
