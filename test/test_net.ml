(* Tests for the network-impairment and reliability subsystem
   (mediactl.net): policies, the seeded impairment engine, frame-
   transport equivalence with the reliable path, idempotent duplication,
   and retransmission over lossy and partitioned links. *)

open Mediactl_types
open Mediactl_core
open Mediactl_runtime
open Mediactl_apps
module Policy = Mediactl_net.Policy
module Impair = Mediactl_net.Impair
module Reliable = Mediactl_net.Reliable
module Trace = Mediactl_obs.Trace

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

(* --- policies --------------------------------------------------------- *)

let test_policy_basics () =
  let p = Policy.lossy ~dup:1.5 ~jitter:(-3.0) 2.0 in
  check tbool "drop clamped" true (p.Policy.drop = 1.0);
  check tbool "dup clamped" true (p.Policy.dup = 1.0);
  check tbool "jitter clamped" true (p.Policy.jitter = 0.0);
  check tbool "ideal is up" true Policy.ideal.Policy.up;
  check tbool "down is down" true (not Policy.down.Policy.up);
  check tbool "lossy 0 = ideal" true (Policy.equal (Policy.lossy 0.0) Policy.ideal)

(* --- the impairment engine -------------------------------------------- *)

let test_impair_deterministic () =
  let fates seed =
    let t = Impair.create ~seed ~default:(Policy.lossy ~dup:0.2 ~jitter:3.0 0.3) () in
    List.init 200 (fun _ -> Impair.fate t ~chan:"c")
  in
  check tbool "equal seeds, equal fates" true (fates 7 = fates 7);
  check tbool "different seeds differ" true (fates 7 <> fates 8)

let test_impair_counters () =
  let t = Impair.create ~seed:1 ~default:(Policy.lossy ~dup:0.3 0.4) () in
  let copies = List.init 500 (fun _ -> List.length (Impair.fate t ~chan:"c")) in
  let c = Impair.counters t ~chan:"c" in
  check tint "sent" 500 c.Impair.sent;
  check tint "delivered" (List.fold_left ( + ) 0 copies) c.Impair.delivered;
  check tbool "some dropped" true (c.Impair.dropped > 0);
  check tbool "some duplicated" true (c.Impair.duplicated > 0);
  check tint "total aggregates" 500 (Impair.total t).Impair.sent

let test_partition_drops_everything () =
  let t = Impair.create ~seed:3 () in
  Impair.partition t ~chan:"c";
  check tbool "frames lost" true
    (List.for_all (fun f -> f = []) (List.init 50 (fun _ -> Impair.fate t ~chan:"c")));
  check tbool "acks lost" true
    (List.for_all Option.is_none (List.init 50 (fun _ -> Impair.ack_fate t ~chan:"c")));
  Impair.heal t ~chan:"c";
  check tbool "healed" true (Impair.fate t ~chan:"c" = [ 0.0 ]);
  check tbool "other links unaffected" true (Impair.fate t ~chan:"d" = [ 0.0 ])

let jsonl trace =
  let b = Buffer.create 4096 in
  Trace.Packed.add_jsonl b trace;
  Buffer.contents b

(* --- frame transport vs the reliable path ----------------------------- *)

(* Run the relink scenario, recording its timed run.  Returns the
   convergence time and the trace. *)
let relink_run ~attach ~boxes ~j =
  let net = Relink.build ~boxes ~j in
  Trace.recording_packed (fun () ->
      Relink.measure ~n:34.0 ~c:20.0 ~j net ~attach:(fun sim ->
          Timed.observe sim;
          attach sim))

(* The run's rendered message-sequence chart: every receive of the
   timed run. *)
let relink_trace ~attach ~boxes ~j =
  let done_at, trace = relink_run ~attach ~boxes ~j in
  (Format.asprintf "%a" Trace.pp_msc trace, done_at)

let prop_zero_loss_bit_identical =
  QCheck2.Test.make ~name:"impaired runs at loss p=0 are bit-identical to unimpaired runs"
    ~count:20
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 1 4))
    (fun (seed, boxes) ->
      let j = 1 + (seed mod boxes) in
      let base = relink_trace ~attach:(fun _ -> ()) ~boxes ~j in
      let impaired =
        relink_trace ~boxes ~j ~attach:(fun sim ->
            Impair.attach (Impair.create ~seed ~default:(Policy.lossy 0.0) ()) sim)
      in
      base = impaired)

(* --- idempotent duplication ------------------------------------------- *)

let audio = [ Codec.G711; Codec.G726 ]
let local name host = Local.endpoint ~owner:name (Address.v host 5000) audio
let l_ref = Netsys.slot_ref ~box:"L" ~chan:"c" ()
let r_ref = Netsys.slot_ref ~box:"R" ~chan:"c" ()

let two_box () =
  let net = List.fold_left Netsys.add_box Netsys.empty [ "L"; "R" ] in
  let net = Netsys.connect net ~chan:"c" ~initiator:"L" ~acceptor:"R" () in
  let net, _ = Netsys.bind_hold net r_ref (local "R" "10.0.0.2") in
  net

(* Open a channel, then change both mutes mid-flight, so describes and
   selects travel in both directions. *)
let run_two_box ~attach =
  let sim = Timed.create ~n:34.0 ~c:20.0 (two_box ()) in
  attach sim;
  Timed.apply sim (fun net -> Netsys.bind_open net l_ref (local "L" "10.0.0.1") Medium.Audio);
  Timed.after sim 300.0 (fun sim ->
      Timed.apply sim (fun net -> Netsys.modify net l_ref Mute.out_only));
  Timed.after sim 500.0 (fun sim ->
      Timed.apply sim (fun net -> Netsys.modify net r_ref Mute.none));
  let _ = Timed.run sim in
  ( Option.get (Netsys.slot (Timed.net sim) l_ref),
    Option.get (Netsys.slot (Timed.net sim) r_ref) )

let idempotent = function
  | Signal.Describe _ | Signal.Select _ -> true
  | Signal.Open _ | Signal.Oack _ | Signal.Close | Signal.Closeack -> false

let prop_duplication_idempotent =
  (* The section-VI idempotence claim at the runtime level: any schedule
     of duplicated describe/select deliveries settles to exactly the
     slot states of the fault-free run. *)
  let baseline = run_two_box ~attach:(fun _ -> ()) in
  QCheck2.Test.make ~name:"any duplication schedule settles to the fault-free state" ~count:30
    QCheck2.Gen.(list_size (return 40) bool)
    (fun schedule ->
      let sched = ref schedule in
      let dup_next () =
        match !sched with
        | [] -> false
        | b :: rest ->
          sched := rest;
          b
      in
      let duplicated =
        run_two_box ~attach:(fun sim ->
            Timed.set_impairment sim (fun _ frame ->
                if idempotent frame.Timed.f_signal && dup_next () then [ 0.0; 7.0 ]
                else [ 0.0 ]))
      in
      baseline = duplicated)

(* --- the reliability layer -------------------------------------------- *)

(* The relink measured over [Impair.create ~seed ~default:policy], with
   the reliability layer attached.  Returns the convergence time, the
   run's trace and the layer. *)
let lossy_relink ~seed policy =
  let rel = ref None in
  let done_at, trace =
    relink_run ~boxes:2 ~j:1 ~attach:(fun sim ->
        rel := Some (Reliable.attach (Impair.create ~seed ~default:policy ()) sim))
  in
  (done_at, trace, Option.get !rel)

let test_reliable_converges_under_loss () =
  let done_at, _, rel = lossy_relink ~seed:5 (Policy.lossy ~jitter:2.0 0.3) in
  check tbool "converged" true (not (Float.is_nan done_at));
  check tbool "no faster than loss-free" true (done_at >= 128.0);
  let c = Reliable.counters rel in
  check tbool "retransmitted" true (c.Reliable.retransmits > 0);
  check tbool "every frame delivered" true (c.Reliable.delivered = c.Reliable.sends);
  check tint "nothing pending" 0 (Reliable.pending rel)

let test_lossy_runs_deterministic () =
  let go () =
    let done_at, trace, _ = lossy_relink ~seed:11 (Policy.lossy ~dup:0.1 ~jitter:4.0 0.2) in
    (jsonl trace, done_at)
  in
  let first = go () in
  check tbool "recorded" true (fst first <> "");
  check tbool "equal seeds, identical runs" true (first = go ())

(* The Figure-13 relink at 5% loss with the reliability layer attached,
   as packed JSONL.  Retransmission timers keep the engine's queue
   churning, equal timestamps included, so these runs pin the event
   order: seeds 7000-7024, concatenated in seed order, hash to a
   committed MD5. *)
let fig13_lossy_jsonl ~seed =
  let net = Prepaid.fig13_start () in
  let _, trace =
    Trace.recording_packed (fun () ->
        Prepaid.fig13 ~n:34.0 ~c:20.0 net ~attach:(fun sim ->
            Timed.observe sim;
            ignore (Reliable.attach (Impair.create ~seed ~default:(Policy.lossy 0.05) ()) sim)))
  in
  jsonl trace

let test_fig13_relink_pinned () =
  let b = Buffer.create (1 lsl 18) in
  for seed = 7000 to 7024 do
    Buffer.add_string b (fig13_lossy_jsonl ~seed)
  done;
  check tint "JSONL bytes" 260_684 (Buffer.length b);
  check Alcotest.string "JSONL digest" "bfb023252a6c4dae9f0230056de8997b"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let test_partition_heal_recovers () =
  let sim = Timed.create ~n:34.0 ~c:20.0 (two_box ()) in
  let impair = Impair.create ~seed:9 () in
  let rel = Reliable.attach impair sim in
  Impair.partition impair ~chan:"c";
  Timed.after sim 600.0 (fun _ -> Impair.heal impair ~chan:"c");
  Timed.apply sim (fun net -> Netsys.bind_open net l_ref (local "L" "10.0.0.1") Medium.Audio);
  let _ = Timed.run sim in
  let l = Option.get (Netsys.slot (Timed.net sim) l_ref) in
  let r = Option.get (Netsys.slot (Timed.net sim) r_ref) in
  check tbool "flowing after heal" true (Semantics.both_flowing ~left:l ~right:r);
  check tbool "frames dropped while down" true ((Impair.total impair).Impair.dropped > 0);
  check tbool "retransmission repaired it" true ((Reliable.counters rel).Reliable.retransmits > 0)

let test_timeout_gives_up () =
  (* A link that never heals: bounded retries must terminate the run and
     count timeouts instead of retrying forever. *)
  let sim = Timed.create ~n:34.0 ~c:20.0 (two_box ()) in
  let impair = Impair.create ~seed:4 () in
  let config = { Reliable.rto = 50.0; backoff = 1.5; max_retries = 2 } in
  let rel = Reliable.attach ~config impair sim in
  Impair.partition impair ~chan:"c";
  Timed.apply sim (fun net -> Netsys.bind_open net l_ref (local "L" "10.0.0.1") Medium.Audio);
  let _ = Timed.run sim in
  let c = Reliable.counters rel in
  check tbool "timed out" true (c.Reliable.timeouts > 0);
  check tint "nothing pending" 0 (Reliable.pending rel);
  check tint "nothing delivered" 0 c.Reliable.delivered

let () =
  Alcotest.run "net"
    [
      ("policy", [ Alcotest.test_case "basics" `Quick test_policy_basics ]);
      ( "impair",
        [
          Alcotest.test_case "deterministic" `Quick test_impair_deterministic;
          Alcotest.test_case "counters" `Quick test_impair_counters;
          Alcotest.test_case "partition/heal" `Quick test_partition_drops_everything;
        ] );
      ( "frame transport",
        [ QCheck_alcotest.to_alcotest prop_zero_loss_bit_identical ] );
      ( "idempotence",
        [ QCheck_alcotest.to_alcotest prop_duplication_idempotent ] );
      ( "reliable",
        [
          Alcotest.test_case "converges under loss" `Quick test_reliable_converges_under_loss;
          Alcotest.test_case "deterministic in the seed" `Quick test_lossy_runs_deterministic;
          Alcotest.test_case "partition then heal" `Quick test_partition_heal_recovers;
          Alcotest.test_case "timeout gives up" `Quick test_timeout_gives_up;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "relink JSONL digest is pinned" `Quick
            test_fig13_relink_pinned;
        ] );
    ]
