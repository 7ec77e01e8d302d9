open Mediactl_sim

type t = {
  mutable events : int;
  mutable duration : float;
  mutable sends_by_signal : (string * int) list;  (* descending count, ties by name *)
  mutable recvs : int;
  mutable slot_transitions : int;
  mutable goal_changes : int;
  mutable open_races : int;
  mutable drops : int;
  mutable dups : int;
  mutable retransmissions : int;
  mutable retries_exhausted : int;
  mutable dup_suppressed : int;
  mutable acks : int;
  round_trip : Stats.t;  (* per tunnel: first open -> first oack receipt, ms *)
  time_to_flowing : Stats.t;  (* per tunnel: trace start -> bothFlowing, ms *)
  mutable violations : int;
}

let create () =
  {
    events = 0;
    duration = 0.0;
    sends_by_signal = [];
    recvs = 0;
    slot_transitions = 0;
    goal_changes = 0;
    open_races = 0;
    drops = 0;
    dups = 0;
    retransmissions = 0;
    retries_exhausted = 0;
    dup_suppressed = 0;
    acks = 0;
    round_trip = Stats.create ();
    time_to_flowing = Stats.create ();
    violations = 0;
  }

(* By descending count, ties by signal name: never by the order
   registries were added in. *)
let sort_sends sends =
  List.sort
    (fun (ka, a) (kb, b) -> match Int.compare b a with 0 -> String.compare ka kb | c -> c)
    sends

(* ------------------------------------------------------------------ *)
(* One scan of a trace

   Each entry feeds the registry's counters, one at a time.  Sends are
   counted by signal constructor into a six-slot array, and the open
   sends still waiting for their oack sit in a short list scanned with
   [String.equal]: no table keyed by strings or [(chan, tun)] pairs, so
   the scan does no generic hashing or comparing. *)

let n_signals = 6

let signal_name = function
  | 0 -> "open"
  | 1 -> "oack"
  | 2 -> "close"
  | 3 -> "closeack"
  | 4 -> "describe"
  | _ -> "select"

let signal_index = function
  | Mediactl_types.Signal.Open _ -> 0
  | Mediactl_types.Signal.Oack _ -> 1
  | Mediactl_types.Signal.Close -> 2
  | Mediactl_types.Signal.Closeack -> 3
  | Mediactl_types.Signal.Describe _ -> 4
  | Mediactl_types.Signal.Select _ -> 5

(* An open send whose oack has not arrived yet. *)
type opened = { o_chan : string; o_tun : int; o_at : float }

let rec waiting_on chan tun = function
  | [] -> None
  | o :: rest ->
    if o.o_tun = tun && String.equal o.o_chan chan then Some o else waiting_on chan tun rest

let on_net m = function
  | Trace.Dropped -> m.drops <- m.drops + 1
  | Trace.Passed n -> if n > 1 then m.dups <- m.dups + 1
  | Trace.Retransmit _ -> m.retransmissions <- m.retransmissions + 1
  | Trace.Retry_exhausted -> m.retries_exhausted <- m.retries_exhausted + 1
  | Trace.Dup_suppressed | Trace.Reorder_suppressed -> m.dup_suppressed <- m.dup_suppressed + 1
  | Trace.Ack_sent -> m.acks <- m.acks + 1
  | Trace.Ack_dropped -> ()

(* The scan reads the flat ring capture through the [Trace.Packed]
   field accessors: no per-event record is built, so a fleet session's
   metrics pass allocates O(tunnels), not O(events).  Round-trip is per
   tunnel: the first open send to the matching oack receipt, one
   signaling round across however many hops the channel's frames
   take. *)
let of_packed_report (report : Monitor.report) p =
  let m = create () in
  let sends = Array.make n_signals 0 in
  let waiting = ref [] in
  let t_min = ref infinity and t_max = ref neg_infinity in
  let n = Trace.Packed.length p in
  for i = 0 to n - 1 do
    let at = Trace.Packed.at p i in
    if at < !t_min then t_min := at;
    if at > !t_max then t_max := at;
    match Trace.Packed.tag p i with
    | 0 -> (
      let signal = Trace.Packed.sig_signal p i in
      let k = signal_index signal in
      sends.(k) <- sends.(k) + 1;
      match signal with
      | Mediactl_types.Signal.Open _ ->
        let chan = Trace.Packed.sig_chan p i and tun = Trace.Packed.sig_tun p i in
        if Option.is_none (waiting_on chan tun !waiting) then
          waiting := { o_chan = chan; o_tun = tun; o_at = at } :: !waiting
      | _ -> ())
    | 1 -> (
      m.recvs <- m.recvs + 1;
      match Trace.Packed.sig_signal p i with
      | Mediactl_types.Signal.Oack _ -> (
        match waiting_on (Trace.Packed.sig_chan p i) (Trace.Packed.sig_tun p i) !waiting with
        | Some o ->
          Stats.add m.round_trip (at -. o.o_at);
          waiting := List.filter (fun o' -> o' != o) !waiting
        | None -> ())
      | _ -> ())
    | 4 -> m.slot_transitions <- m.slot_transitions + 1
    | 5 -> m.goal_changes <- m.goal_changes + 1
    | 6 -> on_net m (Trace.Packed.net_decision p i)
    | _ -> ()
  done;
  let start = if !t_min = infinity then 0.0 else !t_min in
  List.iter
    (fun (r : Monitor.tunnel_report) ->
      m.open_races <- m.open_races + r.Monitor.races;
      Option.iter (fun t -> Stats.add m.time_to_flowing (t -. start)) r.Monitor.first_all_flowing)
    report.Monitor.tunnels;
  m.events <- n;
  m.duration <- (if !t_max >= !t_min then !t_max -. !t_min else 0.0);
  m.sends_by_signal <-
    sort_sends
      (List.filter_map
         (fun k -> if sends.(k) > 0 then Some (signal_name k, sends.(k)) else None)
         (List.init n_signals Fun.id));
  m.violations <- List.length report.Monitor.violations;
  m

let of_packed p = of_packed_report (Monitor.replay_packed p) p

(* ------------------------------------------------------------------ *)
(* Pooling registries

   Counters add, sends pool by signal name, and latency samples append
   in ascending order.  Adding into one running registry never re-copies
   what it already holds, so pooling a fleet is linear in its size. *)

let rec bump k n = function
  | [] -> [ (k, n) ]
  | (k', n') :: rest when String.equal k k' -> (k, n + n') :: rest
  | e :: rest -> e :: bump k n rest

let add into m =
  into.events <- into.events + m.events;
  into.duration <- into.duration +. m.duration;
  into.sends_by_signal <-
    sort_sends
      (List.fold_left (fun acc (k, n) -> bump k n acc) into.sends_by_signal m.sends_by_signal);
  into.recvs <- into.recvs + m.recvs;
  into.slot_transitions <- into.slot_transitions + m.slot_transitions;
  into.goal_changes <- into.goal_changes + m.goal_changes;
  into.open_races <- into.open_races + m.open_races;
  into.drops <- into.drops + m.drops;
  into.dups <- into.dups + m.dups;
  into.retransmissions <- into.retransmissions + m.retransmissions;
  into.retries_exhausted <- into.retries_exhausted + m.retries_exhausted;
  into.dup_suppressed <- into.dup_suppressed + m.dup_suppressed;
  into.acks <- into.acks + m.acks;
  Stats.append into.round_trip m.round_trip;
  Stats.append into.time_to_flowing m.time_to_flowing;
  into.violations <- into.violations + m.violations

let merge_all ms =
  let into = create () in
  List.iter (add into) ms;
  into

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let pp ppf (m : t) =
  let total_sends = List.fold_left (fun acc (_, n) -> acc + n) 0 m.sends_by_signal in
  Format.fprintf ppf
    "@[<v>events      %d over %.1f ms@,\
     signals     %d sent / %d received (%s)@,\
     slots       %d transitions, %d goal changes, %d open races@,\
     network     %d drops, %d dups, %d retransmissions (%d abandoned), %d suppressed, %d \
     acks@,\
     round-trip  %a@,\
     to-flowing  %a@,\
     violations  %d@]"
    m.events m.duration total_sends m.recvs
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s:%d" k v) m.sends_by_signal))
    m.slot_transitions m.goal_changes m.open_races m.drops m.dups m.retransmissions
    m.retries_exhausted m.dup_suppressed m.acks Stats.pp m.round_trip Stats.pp
    m.time_to_flowing m.violations

let stats_json s =
  if Stats.count s = 0 then "null"
  else
    Printf.sprintf
      "{\"n\":%d,\"mean\":%.3f,\"stddev\":%.3f,\"min\":%.3f,\"max\":%.3f,\"p50\":%.3f,\"p95\":%.3f,\"histogram\":[%s]}"
      (Stats.count s) (Stats.mean s) (Stats.stddev s) (Stats.min s) (Stats.max s)
      (Stats.percentile s 0.5) (Stats.percentile s 0.95)
      (String.concat ","
         (List.map
            (fun (lo, hi, n) -> Printf.sprintf "{\"lo\":%.3f,\"hi\":%.3f,\"n\":%d}" lo hi n)
            (Stats.histogram ~bins:8 s)))

(* [time_to_all_flowing_ms] is the current name (the monitor grew N-way
   legs); the historical [time_to_both_flowing_ms] key is emitted as a
   duplicate so downstream JSON consumers don't break silently. *)
let to_json (m : t) =
  let flowing = stats_json m.time_to_flowing in
  Printf.sprintf
    "{\"events\":%d,\"duration_ms\":%.3f,\"sends\":{%s},\"recvs\":%d,\"slot_transitions\":%d,\"goal_changes\":%d,\"open_races\":%d,\"net\":{\"drops\":%d,\"dups\":%d,\"retransmissions\":%d,\"retries_exhausted\":%d,\"dup_suppressed\":%d,\"acks\":%d},\"round_trip_ms\":%s,\"time_to_all_flowing_ms\":%s,\"time_to_both_flowing_ms\":%s,\"violations\":%d}"
    m.events m.duration
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%d" k v) m.sends_by_signal))
    m.recvs m.slot_transitions m.goal_changes m.open_races m.drops m.dups m.retransmissions
    m.retries_exhausted m.dup_suppressed m.acks (stats_json m.round_trip) flowing flowing
    m.violations

let write_json path m =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_json m);
      output_char oc '\n')
