(* Tests for the observability subsystem (mediactl.obs): the packed
   trace ring and its drains, per-run metrics, and the Fig. 5
   conformance monitor — offline and stepped live, including the
   round-trip against the model checker's verdicts on the same path
   configurations, and detection of injected protocol violations. *)

open Mediactl_types
open Mediactl_core
open Mediactl_runtime
open Mediactl_apps
module Trace = Mediactl_obs.Trace
module Metrics = Mediactl_obs.Metrics
module Monitor = Mediactl_obs.Monitor
module Stats = Mediactl_sim.Stats
module Impair = Mediactl_net.Impair
module Policy = Mediactl_net.Policy
module Reliable = Mediactl_net.Reliable

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

(* A timed run of a model-checker path configuration; [script] may
   schedule further actions on the driver before it runs. *)
let path_run ?(left = Semantics.Open_end) ?(right = Semantics.Open_end) ?(flowlinks = 0)
    ?(loss = 0.0) ?(script = fun _ -> ()) ~seed () =
  let sim = Timed.create ~n:34.0 ~c:20.0 (Pathlab.topology ~flowlinks ()) in
  Timed.observe sim;
  if loss > 0.0 then begin
    let impair = Impair.create ~seed ~default:(Policy.lossy loss) () in
    ignore (Reliable.attach impair sim)
  end;
  Timed.apply sim (Pathlab.engage_left left);
  Timed.apply sim (Pathlab.engage_right right ~flowlinks);
  script sim;
  ignore (Timed.run ~until:60_000.0 sim)

let traced_path ?left ?right ?flowlinks ?loss ~seed () =
  snd (Trace.recording_packed (path_run ?left ?right ?flowlinks ?loss ~seed))

(* A run of the 3-party conference, mirroring the fleet scenario: the
   star settles untimed, then one user is fully muted and unmuted under
   the timed driver — each a fresh holdslot/flowlink handshake over the
   (possibly lossy) network. *)
let conf_users = List.map fst (Conference.default_users 3)

let conf_run ?(loss = 0.0) ?(script = fun _ -> ()) ~seed () =
  let users = Conference.default_users 3 in
  let net = fst (Netsys.run (Conference.build ~users)) in
  let sim = Timed.create ~n:34.0 ~c:20.0 net in
  Timed.observe sim;
  if loss > 0.0 then begin
    let impair = Impair.create ~seed ~default:(Policy.lossy loss) () in
    ignore (Reliable.attach impair sim)
  end;
  let muted = List.nth conf_users (seed mod List.length conf_users) in
  Timed.apply sim (Conference.full_mute ~user:muted);
  Timed.after sim 400.0 (fun sim -> Timed.apply sim (Conference.unmute ~user:muted));
  script sim;
  ignore (Timed.run ~until:60_000.0 sim)

let traced_conf ?loss ~seed () = snd (Trace.recording_packed (conf_run ?loss ~seed))

let jsonl trace =
  let b = Buffer.create 4096 in
  Trace.Packed.add_jsonl b trace;
  Buffer.contents b

(* Record [events] again, in order and at their timestamps, through
   [Trace.emit]: how a test turns a decoded (possibly mutated) event
   list back into a capture. *)
let repack events =
  let clock = ref (List.map (fun (e : Trace.event) -> e.Trace.at) events) in
  snd
    (Trace.recording_packed (fun () ->
         Trace.set_clock (fun () ->
             match !clock with
             | t :: rest ->
               clock := rest;
               t
             | [] -> 0.0);
         List.iter (fun (e : Trace.event) -> Trace.emit e.Trace.kind) events))

let judge_path ?(structural = false) ?(flowlinks = 0) obligation trace =
  Monitor.judge
    { Monitor.structural; obligation; legs = [ Pathlab.ends ~flowlinks ] }
    (Monitor.run_packed trace)

(* --- the ring ---------------------------------------------------------- *)

let test_disabled_by_default () =
  check tbool "disabled by default" false (Trace.enabled ());
  (* Emitting outside a recording is a no-op, not an error. *)
  Trace.emit (Trace.Meta_send { chan = "c"; box = "b" });
  check tbool "no drain outside a recording" true
    (match Trace.drain () with _ -> false | exception Invalid_argument _ -> true);
  let (), trace = Trace.recording_packed (fun () -> ()) in
  check tint "fresh recording is empty" 0 (Trace.Packed.length trace);
  check tbool "disabled after recording" false (Trace.enabled ())

let seqs trace = List.map (fun e -> e.Trace.seq) (Trace.Packed.to_events trace)

let test_recording_captures_and_numbers () =
  let emit2 () =
    Trace.emit (Trace.Meta_send { chan = "c"; box = "a" });
    Trace.emit (Trace.Meta_recv { chan = "c"; box = "b" })
  in
  let (), first = Trace.recording_packed emit2 in
  let (), again = Trace.recording_packed emit2 in
  check tbool "two events, numbered from 0" true (seqs first = [ 0; 1 ]);
  check tbool "numbering restarts per bracket" true (seqs again = [ 0; 1 ]);
  let (segments, empty), last =
    Trace.recording_packed (fun () ->
        emit2 ();
        let a = Trace.drain () in
        let empty = Trace.drain () in
        emit2 ();
        let b = Trace.drain () in
        emit2 ();
        ([ a; b ], empty))
  in
  check tint "a drain with nothing new is empty" 0 (Trace.Packed.length empty);
  check tbool "numbering continues across drains" true
    (List.concat_map seqs (segments @ [ last ]) = [ 0; 1; 2; 3; 4; 5 ])

let test_jsonl_roundtrip_shape () =
  let trace = traced_path ~seed:3 () in
  check tbool "nonempty" true (Trace.Packed.length trace > 0);
  let lines = String.split_on_char '\n' (jsonl trace) in
  check tbool "ends with a newline" true (List.nth lines (List.length lines - 1) = "");
  let lines = List.filter (fun l -> l <> "") lines in
  List.iter
    (fun line ->
      check tbool "line is a JSON object" true
        (String.length line > 2 && line.[0] = '{' && line.[String.length line - 1] = '}'))
    lines;
  check tint "one line per event" (Trace.Packed.length trace) (List.length lines)

(* The bytes the retired event-list sink wrote for two fixed-seed lossy
   runs, and the metrics it derived, pinned as MD5 digests: the ring's
   JSONL and metrics must reproduce them exactly. *)
let test_ring_matches_sink_jsonl () =
  let md5 s = Digest.to_hex (Digest.string s) in
  let pinned name trace ~events ~jsonl_md5 ~metrics_md5 =
    check tint (name ^ ": events") events (Trace.Packed.length trace);
    check tstr (name ^ ": JSONL") jsonl_md5 (md5 (jsonl trace));
    check tstr (name ^ ": metrics") metrics_md5
      (md5 (Metrics.to_json (Metrics.of_packed trace)))
  in
  pinned "path, seed 21, 5% loss" (traced_path ~seed:21 ~loss:0.05 ()) ~events:31
    ~jsonl_md5:"6fa1f497e52026fbb9d541349e9b62c9" ~metrics_md5:"a18d1aaa4d9ad32e55ff9a81951fe411";
  pinned "conference, seed 11, 5% loss" (traced_conf ~seed:11 ~loss:0.05 ()) ~events:141
    ~jsonl_md5:"eb4137105ca33d3249a49bbdb9846d41" ~metrics_md5:"623a064263b6e11fe285349e01d866ef"

(* --- JSON rendering against the reference ------------------------------ *)

(* Strings heavy in what JSON must escape: quotes, backslashes,
   newlines, other control characters, and bytes that pass through. *)
let gen_text =
  QCheck2.Gen.(
    string_size
      ~gen:
        (frequency
           [ (2, oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\000'; '\031'; '\127'; '\200' ]); (5, printable) ])
      (int_range 0 8))

(* Whole milliseconds (the fast path), fractions, and values past the
   fast path's range or sign. *)
let gen_at =
  QCheck2.Gen.(
    frequency
      [
        (4, map float_of_int (int_range 0 1_000_000));
        (3, float_range 0.0 100_000.0);
        (1, map (fun x -> x *. 1e9) (float_range 0.0 1e9));
        ( 1,
          oneofl
            [ 0.0; -0.0; -1.0; -2.5; 0.0005; 0.0015; 999999999999999.0; 1e15; 2e15; 1e20; 4503599627370497.0 ]
        );
      ])

let gen_desc =
  QCheck2.Gen.(
    map3
      (fun owner version media ->
        {
          Descriptor.owner;
          version;
          addr = Address.v "10.0.0.1" 4000;
          offer = (if media then Descriptor.Media [ Codec.G711; Codec.H264 ] else Descriptor.No_media);
        })
      gen_text (int_range (-3) 100_000) bool)

let gen_signal =
  QCheck2.Gen.(
    oneof
      [
        map2
          (fun m d -> Signal.Open (m, d))
          (oneofl [ Medium.Audio; Medium.Video; Medium.Text; Medium.Audio_video ])
          gen_desc;
        map (fun d -> Signal.Oack d) gen_desc;
        map (fun d -> Signal.Describe d) gen_desc;
        map3
          (fun owner version codec ->
            Signal.Select
              (Selector.make ~responds_to:(owner, version) ~sender:(Address.v "10.0.0.2" 4002)
                 (match codec with None -> Selector.No_media | Some c -> Selector.Chosen c)))
          gen_text (int_range 0 50)
          (opt (oneofl [ Codec.G711; Codec.Amr_wb; Codec.H264; Codec.T140 ]));
        pure Signal.Close;
        pure Signal.Closeack;
      ])

(* --- intern caches ------------------------------------------------------ *)

(* [Signal_pack] and the trace's string table each sit behind a cache
   that matches by physical identity (64 descriptor, 64 selector and
   256 string slots).  Far more distinct payloads than that must still
   round-trip, keep one interned block per word, and give a structurally
   equal but physically distinct value the same id. *)
let copy_str s = Bytes.to_string (Bytes.of_string s)
let copy_desc (d : Descriptor.t) = { d with Descriptor.owner = copy_str d.Descriptor.owner }

let copy_signal = function
  | Signal.Open (m, d) -> Signal.Open (m, copy_desc d)
  | Signal.Oack d -> Signal.Oack (copy_desc d)
  | Signal.Describe d -> Signal.Describe (copy_desc d)
  | Signal.Select s ->
    let owner, version = s.Selector.responds_to in
    Signal.Select { s with Selector.responds_to = (copy_str owner, version) }
  | (Signal.Close | Signal.Closeack) as s -> s

let prop_intern_caches =
  QCheck2.Test.make ~name:"intern caches: round-trip, stable blocks, one id per value" ~count:30
    QCheck2.Gen.(
      pair
        (list_size (int_range 150 400) gen_signal)
        (list_size (int_range 300 700) (string_size ~gen:printable (int_range 0 12))))
    (fun (signals, strings) ->
      let words = List.map Signal_pack.pack signals in
      let first = List.map Signal_pack.unpack words in
      let round_trip = List.for_all2 ( = ) first signals in
      let stable =
        List.for_all2 (fun w u -> Signal_pack.unpack w == u) (List.rev words) (List.rev first)
      in
      let one_word =
        List.for_all2 (fun s w -> Signal_pack.pack (copy_signal s) = w) signals words
      in
      let (), p =
        Trace.recording_packed (fun () ->
            List.iter
              (fun s -> Trace.emit (Trace.Meta_send { chan = s; box = copy_str s }))
              strings)
      in
      let one_string =
        Trace.Packed.length p = List.length strings
        && List.for_all2
             (fun i s ->
               match Trace.Packed.kind p i with
               | Trace.Meta_send { chan; box } -> String.equal chan s && chan == box
               | _ -> false)
             (List.init (Trace.Packed.length p) Fun.id)
             strings
      in
      round_trip && stable && one_word && one_string)

let gen_decision =
  QCheck2.Gen.(
    oneof
      [
        pure Trace.Dropped;
        map (fun n -> Trace.Passed n) (int_range 0 3);
        map (fun n -> Trace.Retransmit n) (int_range 0 12);
        pure Trace.Retry_exhausted;
        pure Trace.Dup_suppressed;
        pure Trace.Reorder_suppressed;
        pure Trace.Ack_sent;
        pure Trace.Ack_dropped;
      ])

let gen_trace_kind =
  QCheck2.Gen.(
    let sig_event =
      map3
        (fun (chan, tun) (box, peer) (initiator, signal) ->
          { Trace.chan; tun; box; peer; initiator; signal })
        (pair gen_text (int_range (-2) 40))
        (pair gen_text gen_text) (pair bool gen_signal)
    in
    oneof
      [
        map (fun s -> Trace.Sig_send s) sig_event;
        map (fun s -> Trace.Sig_recv s) sig_event;
        map2 (fun chan box -> Trace.Meta_send { chan; box }) gen_text gen_text;
        map2 (fun chan box -> Trace.Meta_recv { chan; box }) gen_text gen_text;
        map2
          (fun (slot, from_) (to_, cause) -> Trace.Slot_transition { slot; from_; to_; cause })
          (pair gen_text gen_text) (pair gen_text gen_text);
        map2
          (fun (goal, slot) (from_, to_) -> Trace.Goal { goal; slot; from_; to_ })
          (pair gen_text gen_text) (pair gen_text gen_text);
        map2 (fun chan decision -> Trace.Net { chan; decision }) gen_text gen_decision;
      ])

(* [(kind, at)] entries as events numbered from 0, and recorded as one
   bracket on this domain. *)
let events entries = List.mapi (fun seq (kind, at) -> { Trace.seq; at; kind }) entries
let record entries = repack (events entries)

let reference entries =
  String.concat "" (List.map (fun e -> Json_ref.event_to_json e ^ "\n") (events entries))

(* Intern 1,000 strings that no generated entry has ([gen_text] never
   makes '\001'): more than the table of a domain that has recorded a
   few random traces holds, so the table doubles. *)
let force_table_doubling () =
  ignore
    (Trace.recording_packed (fun () ->
         for i = 0 to 999 do
           Trace.meta_send ~chan:(Printf.sprintf "\001%d" i) ~box:"\001"
         done))

(* The same entries with every string changed, one to one: recorded
   first on a fresh domain, they get the ids and signal words the
   originals get first on another fresh domain, and render otherwise. *)
let twin_str s = "~" ^ s
let twin_desc (d : Descriptor.t) = { d with Descriptor.owner = twin_str d.Descriptor.owner }

let twin_signal = function
  | Signal.Open (m, d) -> Signal.Open (m, twin_desc d)
  | Signal.Oack d -> Signal.Oack (twin_desc d)
  | Signal.Describe d -> Signal.Describe (twin_desc d)
  | Signal.Select s ->
    let owner, version = s.Selector.responds_to in
    Signal.Select { s with Selector.responds_to = (twin_str owner, version) }
  | (Signal.Close | Signal.Closeack) as s -> s

let twin_sig (s : Trace.sig_event) =
  {
    s with
    Trace.chan = twin_str s.Trace.chan;
    box = twin_str s.Trace.box;
    peer = twin_str s.Trace.peer;
    signal = twin_signal s.Trace.signal;
  }

let twin_kind = function
  | Trace.Sig_send s -> Trace.Sig_send (twin_sig s)
  | Trace.Sig_recv s -> Trace.Sig_recv (twin_sig s)
  | Trace.Meta_send { chan; box } -> Trace.Meta_send { chan = twin_str chan; box = twin_str box }
  | Trace.Meta_recv { chan; box } -> Trace.Meta_recv { chan = twin_str chan; box = twin_str box }
  | Trace.Slot_transition { slot; from_; to_; cause } ->
    Trace.Slot_transition
      { slot = twin_str slot; from_ = twin_str from_; to_ = twin_str to_; cause = twin_str cause }
  | Trace.Goal { goal; slot; from_; to_ } ->
    Trace.Goal
      { goal = twin_str goal; slot = twin_str slot; from_ = twin_str from_; to_ = twin_str to_ }
  | Trace.Net { chan; decision } -> Trace.Net { chan = twin_str chan; decision }

let on_fresh_domain f = Domain.join (Domain.spawn f)

(* Both library renderers — the packed writer over a ring capture and
   [event_to_json] over the structured events — must reproduce the
   reference sprintf renderer byte for byte.  The packed writer is held
   to it on every path it takes:
   - on the trace's home domain, twice: first with a cold memo, then
     with the entries' lines in the memo;
   - on a domain whose memo holds the same keys with other lines: a
     twin trace recorded there first has the same string ids and
     signal words;
   - on a third domain;
   - after [append] joins two brackets of one domain, with the string
     table doubled between them;
   - after [append] joins brackets of two domains. *)
let prop_json_matches_reference =
  QCheck2.Test.make ~name:"packed writer and event_to_json match the reference renderer" ~count:300
    QCheck2.Gen.(list_size (int_range 0 40) (pair gen_trace_kind gen_at))
    (fun entries ->
      let expected = reference entries in
      let first = List.filteri (fun i _ -> i < List.length entries / 2) entries in
      let rest = List.filteri (fun i _ -> i >= List.length entries / 2) entries in
      let home_ok, p, first_home =
        on_fresh_domain (fun () ->
            let p = record entries in
            let cold = jsonl p in
            let warm = jsonl p in
            (String.equal cold expected && String.equal warm expected, p, record first))
      in
      let other_ok, same_home, cross =
        on_fresh_domain (fun () ->
            let twins = List.map (fun (k, at) -> (twin_kind k, at)) entries in
            let q = record twins in
            let twin_ok = String.equal (jsonl q) (reference twins) in
            let foreign_ok = String.equal (jsonl p) expected in
            let a = record first in
            force_table_doubling ();
            let b = record rest in
            let same_home = Trace.Packed.append a b in
            let cross = Trace.Packed.append first_home b in
            (* the same-home join twice: cold, then warm *)
            let joined_ok =
              String.equal (jsonl same_home) expected
              && String.equal (jsonl same_home) expected
              && String.equal (jsonl cross) expected
            in
            (twin_ok && foreign_ok && joined_ok, same_home, cross))
      in
      let b = Buffer.create 256 in
      Trace.Packed.add_jsonl b (record entries);
      home_ok && other_ok
      && String.equal (Buffer.contents b) expected
      && List.for_all (fun p -> String.equal (jsonl p) expected) [ p; same_home; cross ]
      && List.for_all
           (fun e -> String.equal (Trace.event_to_json e) (Json_ref.event_to_json e))
           (events entries))

(* More distinct entries than the memo has slots, whose keys differ
   only in the signal word or in one string id: every render, cold or
   warm, on the home domain or off it, must still match the reference. *)
let test_jsonl_memo_eviction () =
  let signal i =
    Signal.Open
      ( Medium.Audio,
        Descriptor.make ~owner:(Printf.sprintf "o%d" i) ~version:1 (Address.v "10.0.0.1" 7)
          [ Codec.G711 ] )
  in
  let signals =
    List.init 2500 (fun i ->
        let s =
          { Trace.chan = "c"; tun = 0; box = "A"; peer = "B"; initiator = true; signal = signal i }
        in
        (Trace.Sig_send s, float_of_int i))
  in
  let one_field k =
    List.init 600 (fun i ->
        let f j = if j = k then Printf.sprintf "s%d" i else "x" in
        (Trace.Slot_transition { slot = f 1; from_ = f 2; to_ = f 3; cause = f 4 }, 1.5))
  in
  let entries = signals @ List.concat_map one_field [ 1; 2; 3; 4 ] in
  let expected = reference entries in
  (* the same signals in the other order: each trace numbers its signals
     from 0, so here every index stands for another signal *)
  let reversed = List.rev signals in
  let p, home_ok, reversed_ok =
    on_fresh_domain (fun () ->
        let p = record entries in
        let cold = jsonl p in
        let warm = jsonl p in
        ( p,
          String.equal cold expected && String.equal warm expected,
          String.equal (jsonl (record reversed)) (reference reversed) ))
  in
  check tbool "cold and warm renders on the home domain" true home_ok;
  check tbool "a second trace of the same signals on the home domain" true reversed_ok;
  check tbool "rendered on another domain" true (String.equal (jsonl p) expected)

(* Two brackets of one domain share its string table, so joining them
   costs what they hold, not what the domain has interned: the same
   join allocates no more after 50,000 more strings are interned.
   Counted as minor words plus words allocated straight in the major
   heap. *)
let test_append_cost_flat () =
  let small, big =
    on_fresh_domain (fun () ->
        let bracket chan =
          snd
            (Trace.recording_packed (fun () ->
                 for _ = 1 to 16 do
                   Trace.meta_send ~chan ~box:"b";
                   Trace.net ~chan (Trace.Passed 1)
                 done))
        in
        let cost a b =
          let minor0, promoted0, major0 = Gc.counters () in
          ignore (Sys.opaque_identity (Trace.Packed.append a b));
          let minor1, promoted1, major1 = Gc.counters () in
          minor1 -. minor0 +. (major1 -. promoted1) -. (major0 -. promoted0)
        in
        let small = cost (bracket "x") (bracket "y") in
        ignore
          (Trace.recording_packed (fun () ->
               for i = 1 to 50_000 do
                 Trace.meta_send ~chan:(string_of_int i) ~box:"b"
               done));
        (small, cost (bracket "x") (bracket "z")))
  in
  check tbool
    (Printf.sprintf "%.0f words to join before, %.0f after 50,000 more strings" small big)
    true (big <= small)

(* --- field widths -------------------------------------------------------- *)

(* A packed trace stores every field at the narrowest of 1, 2, 4 or 8
   bytes that holds its widest field, signed.  Its string fields index
   the trace's own strings, so [distinct n] — entries over [n + 1]
   distinct strings, the first [n] new on the domain — needs 1 byte up
   to [n] = 127, 2 bytes up to 32,767 and 4 bytes beyond; a tunnel
   number needs what its value needs.  Every width must render what
   the reference renders. *)
let distinct ?(prefix = "w") n =
  List.init n (fun i ->
      (Trace.Meta_send { chan = Printf.sprintf "%s%d" prefix i; box = "b" }, float_of_int i))

let tunnel tun =
  let s =
    {
      Trace.chan = "c";
      tun;
      box = "A";
      peer = "B";
      initiator = false;
      signal = Signal.Close;
    }
  in
  [ (Trace.Sig_send s, 1.0); (Trace.Net { chan = "c"; decision = Trace.Passed 1 }, 2.0) ]

let renders_reference entries = String.equal (jsonl (record entries)) (reference entries)

let test_widths_render () =
  let strings, tunnels =
    on_fresh_domain (fun () ->
        ( List.map (fun n -> (n, renders_reference (distinct n))) [ 127; 128; 32_767; 32_768 ],
          List.map
            (fun tun -> (tun, renders_reference (tunnel tun)))
            [
              127; 128; -128; -129; 32_767; 32_768; -32_768; -32_769; (1 lsl 31) - 1; 1 lsl 31;
              -(1 lsl 31); -(1 lsl 31) - 1; max_int; min_int;
            ] ))
  in
  List.iter
    (fun (n, ok) -> check tbool (Printf.sprintf "%d new strings" n) true ok)
    strings;
  List.iter (fun (tun, ok) -> check tbool (Printf.sprintf "tunnel %d" tun) true ok) tunnels

(* [append] re-encodes at the width the joined fields need: a join of
   two 1-byte traces of 100 strings each moves the second's string
   indices to 100–199, past 1 byte; a narrow trace joined before or
   after a wide one takes its width.  Each join is rendered on its home
   domain (cold, then from the memo), on another domain, and joined
   across two domains. *)
let test_append_widths () =
  let pairs =
    [
      ("two narrow, joined past 1 byte", distinct ~prefix:"a" 100, distinct ~prefix:"b" 100);
      ("narrow then 2 bytes", distinct ~prefix:"a" 10, distinct ~prefix:"b" 300);
      ("2 bytes then narrow", distinct ~prefix:"a" 300, distinct ~prefix:"b" 10);
      ("narrow then 4 bytes", distinct ~prefix:"a" 10, tunnel 70_000);
      ("8 bytes then 2 bytes", tunnel (1 lsl 40), distinct ~prefix:"b" 200);
    ]
  in
  let on_one_home, joined =
    on_fresh_domain (fun () ->
        List.map
          (fun (what, a, b) ->
            let p = Trace.Packed.append (record a) (record b) in
            let cold = jsonl p in
            let warm = jsonl p in
            (what, String.equal cold (reference (a @ b)) && String.equal warm cold))
          pairs,
        List.map (fun (_, a, b) -> Trace.Packed.append (record a) (record b)) pairs)
  in
  let firsts = on_fresh_domain (fun () -> List.map (fun (_, a, _) -> record a) pairs) in
  List.iter (fun (what, ok) -> check tbool ("one home: " ^ what) true ok) on_one_home;
  List.iter2
    (fun (what, a, b) p ->
      check tbool ("rendered off its home: " ^ what) true
        (String.equal (jsonl p) (reference (a @ b))))
    pairs joined;
  List.iter2
    (fun (what, a, b) first ->
      let p = Trace.Packed.append first (record b) in
      check tbool ("two homes: " ^ what) true (String.equal (jsonl p) (reference (a @ b))))
    pairs firsts

(* A capture keeps the ring's raw entries, whatever width the traces
   around it are packed at: entries over strings interned after 40,000
   others, and a tunnel that needs 4 bytes, replayed into a narrow
   bracket, render as the reference renders them there. *)
let test_capture_replay_widths () =
  let captured = distinct ~prefix:"late" 3 @ tunnel 70_000 in
  let at7 entries = List.map (fun (k, _) -> (k, 7.0)) entries in
  let ok =
    on_fresh_domain (fun () ->
        ignore
          (Trace.recording_packed (fun () ->
               for i = 0 to 39_999 do
                 Trace.meta_send ~chan:(Printf.sprintf "early%d" i) ~box:"b"
               done));
        let emit_all () = List.iter (fun (k, _) -> Trace.emit k) captured in
        let (_, cap), first = Trace.recording_packed (fun () -> Trace.capture emit_all) in
        let x = (Trace.Meta_send { chan = "x"; box = "A" }, 7.0) in
        let y = (Trace.Meta_recv { chan = "y"; box = "B" }, 7.0) in
        let (), later =
          Trace.recording_packed (fun () ->
              Trace.set_clock (fun () -> 7.0);
              Trace.emit (fst x);
              Trace.replay cap;
              Trace.emit (fst y))
        in
        String.equal (jsonl first) (reference (List.map (fun (k, _) -> (k, 0.0)) captured))
        && String.equal (jsonl later) (reference ((x :: at7 captured) @ [ y ])))
  in
  check tbool "captured and replayed entries render as the reference" true ok

(* --- drains and the live monitor ----------------------------------------- *)

(* A signal from a box that is neither end of a tunnel the run has
   already opened: a violation wherever it lands. *)
let inject_third_box ~chan ~tun sim =
  Timed.at sim 450.0 (fun _ ->
      Trace.sig_send ~chan ~tun ~box:"X" ~peer:"?" ~initiator:false Signal.Closeack)

(* Draining at arbitrary moments changes nothing observable: the
   segments' JSONL concatenates to that of one bracket, and a monitor
   stepped segment by segment reports and judges exactly as the offline
   replay of the whole trace — violation messages, whose [#seq] must
   count across segment boundaries, included. *)
let prop_drains_match_one_bracket =
  QCheck2.Test.make ~name:"drained segments match one bracket and the offline monitor" ~count:60
    ~print:(fun (conf, seed, loss, (times, inject)) ->
      Printf.sprintf "%s seed=%d loss=%d%% drains at [%s]%s"
        (if conf then "conference" else "path")
        seed loss
        (String.concat "; " (List.map string_of_float times))
        (if inject then " with a third box" else ""))
    QCheck2.Gen.(
      quad bool (int_range 0 9999) (int_range 0 15)
        (pair (list_size (int_range 0 8) (float_range 0.0 1500.0)) bool))
    (fun (conf, seed, loss_pct, (times, inject)) ->
      let loss = float_of_int loss_pct /. 100.0 in
      let run script =
        if conf then conf_run ~loss ~seed ~script () else path_run ~loss ~seed ~script ()
      in
      let judgement =
        {
          Monitor.structural = loss > 0.0;
          obligation = Monitor.Always_eventually_flowing;
          legs =
            (if conf then Conference.legs ~users:conf_users else [ Pathlab.ends ~flowlinks:0 ]);
        }
      in
      (* the tunnel of the run's first signal: both its ends signal at once *)
      let chan, tun =
        let base = snd (Trace.recording_packed (fun () -> run (fun _ -> ()))) in
        let rec first i =
          if Trace.Packed.tag base i <= 1 then
            (Trace.Packed.sig_chan base i, Trace.Packed.sig_tun base i)
          else first (i + 1)
        in
        first 0
      in
      let stray sim = if inject then inject_third_box ~chan ~tun sim in
      let (), whole = Trace.recording_packed (fun () -> run stray) in
      let live = Monitor.create () in
      let streamed = Buffer.create 4096 in
      let take seg =
        Trace.Packed.add_jsonl streamed seg;
        for i = 0 to Trace.Packed.length seg - 1 do
          Monitor.step live seg i
        done
      in
      let (), last =
        Trace.recording_packed (fun () ->
            run (fun sim ->
                stray sim;
                List.iter (fun at -> Timed.at sim at (fun _ -> take (Trace.drain ()))) times))
      in
      take last;
      let offline = Monitor.run_packed whole in
      let report = Monitor.report live in
      String.equal (Buffer.contents streamed) (jsonl whole)
      && report = Monitor.report offline
      && Monitor.judge judgement live = Monitor.judge judgement offline
      && Monitor.conformant report = not inject)

(* Entries must survive buffer doubling (the ring starts at 1024
   entries), and a later recording on the same domain reuses the ring
   without leaking the previous capture's entries. *)
let test_ring_growth_and_reuse () =
  let n = 5000 in
  let (), big =
    Trace.recording_packed (fun () ->
        for i = 0 to n - 1 do
          Trace.net ~chan:(if i mod 2 = 0 then "even" else "odd") Trace.Ack_sent
        done)
  in
  check tint "all entries captured across growth" n (Trace.Packed.length big);
  let ok = ref true in
  List.iteri
    (fun i e ->
      if e.Trace.seq <> i then ok := false;
      match e.Trace.kind with
      | Trace.Net { chan; decision = Trace.Ack_sent } ->
        if chan <> (if i mod 2 = 0 then "even" else "odd") then ok := false
      | _ -> ok := false)
    (Trace.Packed.to_events big);
  check tbool "entries survive buffer growth in order" true !ok;
  let (), small =
    Trace.recording_packed (fun () -> Trace.net ~chan:"fresh" Trace.Dropped)
  in
  check tint "reused ring starts empty" 1 (Trace.Packed.length small);
  match (Trace.Packed.event small 0).Trace.kind with
  | Trace.Net { chan = "fresh"; decision = Trace.Dropped } -> ()
  | _ -> Alcotest.fail "stale entries leaked from the previous recording"

(* Two domains recording concurrently must produce disjoint captures,
   and a capture (including its interned signals) must decode correctly
   after being shipped to the joining domain. *)
let test_ring_two_domain_isolation () =
  let record chan count =
    snd
      (Trace.recording_packed (fun () ->
           let d =
             Descriptor.make ~owner:chan ~version:1 (Address.v "10.0.0.1" 7) [ Codec.G711 ]
           in
           Trace.sig_send ~chan ~tun:0 ~box:"A" ~peer:"B" ~initiator:true
             (Signal.Open (Medium.Audio, d));
           for _ = 1 to count do
             Trace.net ~chan Trace.Ack_sent
           done))
  in
  let d1 = Domain.spawn (fun () -> record "dom1" 300) in
  let d2 = Domain.spawn (fun () -> record "dom2" 500) in
  let p1 = Domain.join d1 and p2 = Domain.join d2 in
  let only chan p =
    let ok = ref true in
    Trace.Packed.iter
      (fun e ->
        match e.Trace.kind with
        | Trace.Net { chan = c; decision = Trace.Ack_sent } -> if c <> chan then ok := false
        | Trace.Sig_send { chan = c; signal = Signal.Open (Medium.Audio, d); _ } ->
          if c <> chan || d.Descriptor.owner <> chan then ok := false
        | _ -> ok := false)
      p;
    !ok
  in
  check tint "domain 1 count" 301 (Trace.Packed.length p1);
  check tint "domain 2 count" 501 (Trace.Packed.length p2);
  check tbool "no cross-domain leakage, signals decode after join" true
    (only "dom1" p1 && only "dom2" p2)

(* A capture replayed into a later bracket decodes to the events it
   captured, numbered on in that bracket and stamped with the clock at
   the moment of replay — not with the clock they were captured at. *)
let test_capture_replay () =
  let desc = Descriptor.make ~owner:"cap" ~version:2 (Address.v "10.0.0.2" 9) [ Codec.G711 ] in
  let captured () =
    Trace.sig_send ~chan:"cap" ~tun:0 ~box:"A" ~peer:"B" ~initiator:true
      (Signal.Open (Medium.Audio, desc));
    Trace.slot_transition ~slot:"A.cap.0" ~from_:"closed" ~to_:"opening" ~cause:"open";
    Trace.net ~chan:"cap" (Trace.Passed 2)
  in
  let cap, first =
    Trace.recording_packed (fun () ->
        Trace.set_clock (fun () -> 5.0);
        Trace.meta_send ~chan:"before" ~box:"A";
        snd (Trace.capture captured))
  in
  let (), later =
    Trace.recording_packed (fun () ->
        Trace.set_clock (fun () -> 7.0);
        Trace.meta_send ~chan:"x" ~box:"A";
        Trace.replay cap;
        Trace.meta_recv ~chan:"y" ~box:"B")
  in
  let kinds p lo hi =
    List.init (hi - lo) (fun i -> Format.asprintf "%a" Trace.pp_kind (Trace.Packed.kind p (lo + i)))
  in
  check tint "captured bracket" 4 (Trace.Packed.length first);
  check tint "replayed bracket" 5 (Trace.Packed.length later);
  check (Alcotest.list tstr) "replay decodes to the captured events" (kinds first 1 4)
    (kinds later 1 4);
  check (Alcotest.list tint) "numbered on in the later bracket" [ 0; 1; 2; 3; 4 ] (seqs later);
  check tbool "stamped with the replay clock" true
    (List.for_all (fun e -> e.Trace.at = 7.0) (Trace.Packed.to_events later));
  (* Outside a bracket replay does nothing, and a capture is empty. *)
  Trace.replay cap;
  let (), outside = Trace.capture captured in
  let (), after = Trace.recording_packed (fun () -> Trace.replay outside) in
  check tint "replay outside a bracket records nothing" 0 (Trace.Packed.length after);
  check tbool "drain inside a capture raises" true
    (match
       Trace.recording_packed (fun () ->
           Trace.capture (fun () ->
               Trace.meta_send ~chan:"c" ~box:"A";
               ignore (Trace.drain ())))
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check tbool "replay on another domain raises" true
    (Domain.join
       (Domain.spawn (fun () ->
            match Trace.recording_packed (fun () -> Trace.replay cap) with
            | _ -> false
            | exception Invalid_argument _ -> true)))

(* Replay grows the ring as far as it must: on a fresh domain, two
   replays of a 1500-entry capture pass the ring's initial 1024. *)
let test_replay_grows_ring () =
  let n = 1500 in
  let seq_ok, len =
    Domain.join
      (Domain.spawn (fun () ->
           let (_, cap), _ =
             Trace.recording_packed (fun () ->
                 Trace.capture (fun () ->
                     for i = 0 to n - 1 do
                       Trace.net ~chan:(string_of_int i) Trace.Ack_sent
                     done))
           in
           let (), p =
             Trace.recording_packed (fun () ->
                 Trace.replay cap;
                 Trace.replay cap)
           in
           let ok = ref true in
           List.iteri
             (fun i e ->
               match e.Trace.kind with
               | Trace.Net { chan; _ } -> if chan <> string_of_int (i mod n) then ok := false
               | _ -> ok := false)
             (Trace.Packed.to_events p);
           (!ok, Trace.Packed.length p)))
  in
  check tint "both replays recorded" (2 * n) len;
  check tbool "entries survive growth in order" true seq_ok

(* --- metrics ---------------------------------------------------------- *)

let test_metrics_clean_run () =
  let m = Metrics.of_packed (traced_path ~seed:5 ()) in
  let sends = List.fold_left (fun acc (_, n) -> acc + n) 0 m.Metrics.sends_by_signal in
  check tint "every send delivered" sends m.Metrics.recvs;
  check tint "no drops without impairment" 0 m.Metrics.drops;
  check tint "no retransmissions without impairment" 0 m.Metrics.retransmissions;
  check tbool "time to bothFlowing measured" true (Stats.count m.Metrics.time_to_flowing = 1);
  check tbool "a signal round-trip measured" true (Stats.count m.Metrics.round_trip >= 1);
  check tint "clean run is conformant" 0 m.Metrics.violations

let prop_histogram_partitions =
  QCheck2.Test.make ~name:"histogram bins partition the samples" ~count:100
    QCheck2.Gen.(pair (int_range 1 12) (list_size (int_range 1 60) (float_bound_exclusive 1000.0)))
    (fun (bins, samples) ->
      let s = Stats.create () in
      List.iter (Stats.add s) samples;
      let h = Stats.histogram ~bins s in
      List.length h = bins
      && List.fold_left (fun acc (_, _, n) -> acc + n) 0 h = List.length samples)

(* --- the monitor: conformance ---------------------------------------- *)

let prop_zero_loss_satisfies_monitor =
  QCheck2.Test.make
    ~name:"zero-impairment path run: Fig. 5 conformant and []<> bothFlowing satisfied"
    ~count:40
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 0 1))
    (fun (seed, flowlinks) ->
      let trace = traced_path ~seed ~flowlinks () in
      Monitor.conformant (Monitor.replay_packed trace)
      && judge_path ~flowlinks Monitor.Always_eventually_flowing trace = Monitor.Satisfied)

let prop_lossy_still_conformant =
  QCheck2.Test.make
    ~name:"lossy path run with the reliability layer: still protocol-conformant" ~count:40
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 1 25))
    (fun (seed, loss_pct) ->
      let trace = traced_path ~seed ~loss:(float_of_int loss_pct /. 100.0) () in
      Monitor.conformant (Monitor.replay_packed trace))

(* --- the monitor: flagging violations -------------------------------- *)

(* A run that closes cleanly: both ends flow, then both ends are told to
   close (crossing closes, both acknowledged).  Decoded, so that tests
   can mutate it and {!repack} it. *)
let record_close_run () =
  Trace.Packed.to_events
    (snd
       (Trace.recording_packed (fun () ->
            let net, _ = Netsys.run (Pathlab.build ()) in
            let net, _ = Netsys.bind_close net Pathlab.left_slot in
            let net, _ = Netsys.bind_close net (Pathlab.right_slot ~flowlinks:0) in
            ignore (Netsys.run net))))

(* Drop R's closeack (its send, and its receipt at L), as a faulty
   network without the reliability layer would. *)
let drop_closeack events =
  List.filter
    (fun e ->
      match e.Trace.kind with
      | Trace.Sig_send { box = "R"; signal = Signal.Closeack; _ } -> false
      | Trace.Sig_recv { box = "L"; signal = Signal.Closeack; _ } -> false
      | _ -> true)
    events

let test_clean_close_is_conformant () =
  let trace = repack (record_close_run ()) in
  let report = Monitor.replay_packed trace in
  check tbool "close run conformant" true (Monitor.conformant report);
  check tbool "close run decides <>[] bothClosed" true
    (judge_path Monitor.Eventually_always_closed trace = Monitor.Satisfied)

let has needle v =
  let lv = String.length v and ln = String.length needle in
  let rec go i = i + ln <= lv && (String.sub v i ln = needle || go (i + 1)) in
  go 0

let test_dropped_closeack_is_flagged () =
  let trace = repack (drop_closeack (record_close_run ())) in
  let report = Monitor.replay_packed trace in
  check tbool "mutated trace is non-conformant" false (Monitor.conformant report);
  check tbool "stuck closing is reported" true
    (List.exists (has "closing") report.Monitor.violations);
  match judge_path Monitor.Eventually_always_closed trace with
  | Monitor.Violated _ -> ()
  | Monitor.Satisfied | Monitor.Undetermined _ ->
    Alcotest.fail "obligation should be violated on the mutated trace"

let test_injected_duplicate_open_is_flagged () =
  let events = Trace.Packed.to_events (traced_path ~seed:7 ()) in
  check tbool "base trace conformant" true
    (Monitor.conformant (Monitor.replay_packed (repack events)));
  let stray =
    let d = Descriptor.make ~owner:"X" ~version:1 (Address.v "10.9.9.9" 9) [ Codec.G711 ] in
    {
      Trace.seq = 100_000;
      at = 0.0;
      kind =
        Trace.Sig_recv
          {
            chan = "ch0";
            tun = 0;
            box = "L";
            peer = "R";
            initiator = true;
            signal = Signal.Open (Medium.Audio, d);
          };
    }
  in
  let report = Monitor.replay_packed (repack (events @ [ stray ])) in
  check tbool "injected duplicate open is flagged" false (Monitor.conformant report)

(* A legal open sent by a box that is neither end of [ch0.0]: the
   tunnel already has its two ends, so this is a violation at that
   entry, naming the box and the tunnel — not a third side whose
   dangling send would go unnoticed. *)
let test_injected_third_box_is_flagged () =
  let events = Trace.Packed.to_events (traced_path ~seed:7 ()) in
  let stray =
    let d = Descriptor.make ~owner:"X" ~version:1 (Address.v "10.9.9.9" 9) [ Codec.G711 ] in
    {
      Trace.seq = 100_000;
      at = 0.0;
      kind =
        Trace.Sig_send
          {
            chan = "ch0";
            tun = 0;
            box = "X";
            peer = "R";
            initiator = false;
            signal = Signal.Open (Medium.Audio, d);
          };
    }
  in
  let trace = repack (events @ [ stray ]) in
  let report = Monitor.replay_packed trace in
  let seq = List.length events in
  check (Alcotest.list tstr) "one violation, at the stray entry"
    [ Printf.sprintf "#%d ch0.0 X: a third box on the tunnel, whose ends are L and R" seq ]
    report.Monitor.violations;
  check tint "the box is not made a side" 2
    (List.length (List.hd report.Monitor.tunnels).Monitor.summaries);
  match judge_path Monitor.Always_eventually_flowing trace with
  | Monitor.Violated _ -> ()
  | Monitor.Satisfied | Monitor.Undetermined _ ->
    Alcotest.fail "[]<> bothFlowing should be violated by a third box"

(* --- the monitor vs the model checker -------------------------------- *)

(* The acceptance round-trip: on the configurations the checker proves,
   the monitor must reach the same verdict about the simulated run. *)
let test_monitor_agrees_with_checker () =
  List.iter
    (fun flowlinks ->
      let config =
        Mediactl_mc.Path_model.path_config ~left:Semantics.Open_end ~right:Semantics.Open_end
          ~flowlinks ~chaos:0 ~modifies:0 ()
      in
      let mc = Mediactl_mc.Check.run config in
      check tbool
        (Printf.sprintf "checker passes openslot--%sopenslot"
           (String.concat "" (List.init flowlinks (fun _ -> "fl--"))))
        true
        (Mediactl_mc.Check.passed mc);
      let trace = traced_path ~flowlinks ~seed:11 () in
      check tbool "monitor reproduces the checker's verdict" true
        (judge_path ~flowlinks Monitor.Always_eventually_flowing trace = Monitor.Satisfied))
    [ 0; 1 ]

(* --- the monitor, N-way: the 3-party conference star ------------------ *)

let judge_conf ?(structural = false) trace =
  Monitor.judge
    {
      Monitor.structural;
      obligation = Monitor.Always_eventually_flowing;
      legs = Conference.legs ~users:conf_users;
    }
    (Monitor.run_packed trace)

(* The N-way acceptance round-trip: the checker proves []<> allFlowing
   on the 3-party star model, and the leg-quantified monitor reaches the
   same verdict about a simulated conference run. *)
let test_conf_monitor_agrees_with_checker () =
  let mc =
    Mediactl_mc.Check.run
      (Mediactl_mc.Path_model.conf_config
         ~parties:[ Semantics.Open_end; Semantics.Open_end; Semantics.Open_end ]
         ~flowlinks:1 ~chaos:0 ~modifies:0 ())
  in
  check tbool "checker passes the 3-party star" true (Mediactl_mc.Check.passed mc);
  let trace = traced_conf ~seed:11 () in
  check tbool "conference run conformant" true (Monitor.conformant (Monitor.replay_packed trace));
  check tbool "monitor decides []<> allFlowing over all three legs" true
    (judge_conf trace = Monitor.Satisfied)

let prop_zero_loss_conf_satisfies_monitor =
  QCheck2.Test.make
    ~name:"zero-impairment conference run: conformant and []<> allFlowing satisfied"
    ~count:25
    QCheck2.Gen.(int_range 0 9999)
    (fun seed ->
      let trace = traced_conf ~seed () in
      Monitor.conformant (Monitor.replay_packed trace) && judge_conf trace = Monitor.Satisfied)

let prop_lossy_conf_still_satisfied =
  QCheck2.Test.make
    ~name:"lossy conference run: conformant, []<> allFlowing (structural) satisfied"
    ~count:25
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 1 25))
    (fun (seed, loss_pct) ->
      let trace = traced_conf ~seed ~loss:(float_of_int loss_pct /. 100.0) () in
      Monitor.conformant (Monitor.replay_packed trace)
      && judge_conf ~structural:true trace = Monitor.Satisfied)

(* --------------------------------------------------------------------- *)

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "disabled by default" `Quick test_disabled_by_default;
          Alcotest.test_case "recording" `Quick test_recording_captures_and_numbers;
          Alcotest.test_case "jsonl shape" `Quick test_jsonl_roundtrip_shape;
          Alcotest.test_case "ring matches sink jsonl" `Quick test_ring_matches_sink_jsonl;
          QCheck_alcotest.to_alcotest prop_json_matches_reference;
          Alcotest.test_case "jsonl memo eviction" `Quick test_jsonl_memo_eviction;
          Alcotest.test_case "same-domain append cost is flat" `Quick test_append_cost_flat;
          Alcotest.test_case "every field width renders the reference" `Quick test_widths_render;
          Alcotest.test_case "append re-encodes at the joined width" `Quick test_append_widths;
          Alcotest.test_case "capture and replay across widths" `Quick
            test_capture_replay_widths;
          QCheck_alcotest.to_alcotest prop_intern_caches;
          QCheck_alcotest.to_alcotest prop_drains_match_one_bracket;
          Alcotest.test_case "ring growth and reuse" `Quick test_ring_growth_and_reuse;
          Alcotest.test_case "ring two-domain isolation" `Quick
            test_ring_two_domain_isolation;
          Alcotest.test_case "capture and replay" `Quick test_capture_replay;
          Alcotest.test_case "replay grows the ring" `Quick test_replay_grows_ring;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "clean run" `Quick test_metrics_clean_run;
          QCheck_alcotest.to_alcotest prop_histogram_partitions;
        ] );
      ( "monitor",
        [
          QCheck_alcotest.to_alcotest prop_zero_loss_satisfies_monitor;
          QCheck_alcotest.to_alcotest prop_lossy_still_conformant;
          Alcotest.test_case "clean close conformant" `Quick test_clean_close_is_conformant;
          Alcotest.test_case "dropped closeack flagged" `Quick
            test_dropped_closeack_is_flagged;
          Alcotest.test_case "injected duplicate open flagged" `Quick
            test_injected_duplicate_open_is_flagged;
          Alcotest.test_case "injected third box flagged" `Quick
            test_injected_third_box_is_flagged;
        ] );
      ( "round-trip",
        [ Alcotest.test_case "agrees with model checker" `Slow test_monitor_agrees_with_checker ] );
      ( "conference",
        [
          Alcotest.test_case "3-party star agrees with model checker" `Quick
            test_conf_monitor_agrees_with_checker;
          QCheck_alcotest.to_alcotest prop_zero_loss_conf_satisfies_monitor;
          QCheck_alcotest.to_alcotest prop_lossy_conf_still_satisfied;
        ] );
    ]
