open Mediactl_sim

type t = {
  events : int;
  duration : float;
  sends_by_signal : (string * int) list;  (* descending count, ties by name *)
  recvs : int;
  slot_transitions : int;
  goal_changes : int;
  open_races : int;
  drops : int;
  dups : int;
  retransmissions : int;
  retries_exhausted : int;
  dup_suppressed : int;
  acks : int;
  round_trip : Stats.t;  (* per tunnel: first open -> first oack receipt, ms *)
  time_to_flowing : Stats.t;  (* per tunnel: trace start -> bothFlowing, ms *)
  violations : int;
}

(* By descending count, ties by signal name: never by [Hashtbl] order,
   which depends on how merged registries were interleaved. *)
let sort_sends sends =
  List.sort
    (fun (ka, a) (kb, b) -> match Int.compare b a with 0 -> String.compare ka kb | c -> c)
    sends

(* ------------------------------------------------------------------ *)
(* One scan of a trace

   Each entry feeds the counters, one at a time.  Sends are counted
   by signal constructor into a six-slot array, and the open sends
   still waiting for their oack sit in a short list scanned with
   [String.equal]: no table keyed by strings or [(chan, tun)] pairs,
   so the scan does no generic hashing or comparing. *)

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

type scan = {
  n_sends : int array;  (* by [signal_index] *)
  mutable n_recvs : int;
  mutable n_slots : int;
  mutable n_goals : int;
  mutable n_drops : int;
  mutable n_dups : int;
  mutable n_retrans : int;
  mutable n_exhausted : int;
  mutable n_suppressed : int;
  mutable n_acks : int;
  mutable t_min : float;
  mutable t_max : float;
  mutable waiting : opened list;
  round_trip : Stats.t;
}

let scan () =
  {
    n_sends = Array.make n_signals 0;
    n_recvs = 0;
    n_slots = 0;
    n_goals = 0;
    n_drops = 0;
    n_dups = 0;
    n_retrans = 0;
    n_exhausted = 0;
    n_suppressed = 0;
    n_acks = 0;
    t_min = infinity;
    t_max = neg_infinity;
    waiting = [];
    round_trip = Stats.create ();
  }

let stamp (s : scan) at =
  if at < s.t_min then s.t_min <- at;
  if at > s.t_max then s.t_max <- at

let rec waiting_on chan tun = function
  | [] -> None
  | o :: rest ->
    if o.o_tun = tun && String.equal o.o_chan chan then Some o else waiting_on chan tun rest

(* Round-trip per tunnel: the first open send to the matching oack
   receipt — one signaling round across however many hops the
   channel's frames take. *)
let on_send (s : scan) ~chan ~tun ~at signal =
  let k = signal_index signal in
  s.n_sends.(k) <- s.n_sends.(k) + 1;
  match signal with
  | Mediactl_types.Signal.Open _ -> (
    match waiting_on chan tun s.waiting with
    | Some _ -> ()
    | None -> s.waiting <- { o_chan = chan; o_tun = tun; o_at = at } :: s.waiting)
  | _ -> ()

let on_recv (s : scan) ~chan ~tun ~at signal =
  s.n_recvs <- s.n_recvs + 1;
  match signal with
  | Mediactl_types.Signal.Oack _ -> (
    match waiting_on chan tun s.waiting with
    | Some o ->
      Stats.add s.round_trip (at -. o.o_at);
      s.waiting <- List.filter (fun o' -> o' != o) s.waiting
    | None -> ())
  | _ -> ()

let on_net (s : scan) = function
  | Trace.Dropped -> s.n_drops <- s.n_drops + 1
  | Trace.Passed n -> if n > 1 then s.n_dups <- s.n_dups + 1
  | Trace.Retransmit _ -> s.n_retrans <- s.n_retrans + 1
  | Trace.Retry_exhausted -> s.n_exhausted <- s.n_exhausted + 1
  | Trace.Dup_suppressed | Trace.Reorder_suppressed -> s.n_suppressed <- s.n_suppressed + 1
  | Trace.Ack_sent -> s.n_acks <- s.n_acks + 1
  | Trace.Ack_dropped -> ()

let finish (s : scan) ~events (monitor : Monitor.report) : t =
  let time_to_flowing = Stats.create () in
  let start = if s.t_min = infinity then 0.0 else s.t_min in
  List.iter
    (fun (r : Monitor.tunnel_report) ->
      match r.Monitor.first_all_flowing with
      | Some t -> Stats.add time_to_flowing (t -. start)
      | None -> ())
    monitor.Monitor.tunnels;
  let sends = ref [] in
  Array.iteri (fun k n -> if n > 0 then sends := (signal_name k, n) :: !sends) s.n_sends;
  {
    events;
    duration = (if s.t_max >= s.t_min then s.t_max -. s.t_min else 0.0);
    sends_by_signal = sort_sends !sends;
    recvs = s.n_recvs;
    slot_transitions = s.n_slots;
    goal_changes = s.n_goals;
    open_races =
      List.fold_left (fun acc r -> acc + r.Monitor.races) 0 monitor.Monitor.tunnels;
    drops = s.n_drops;
    dups = s.n_dups;
    retransmissions = s.n_retrans;
    retries_exhausted = s.n_exhausted;
    dup_suppressed = s.n_suppressed;
    acks = s.n_acks;
    round_trip = s.round_trip;
    time_to_flowing;
    violations = List.length monitor.Monitor.violations;
  }

(* The scan reads the flat ring capture through the [Trace.Packed]
   field accessors: no per-event record is built, so a fleet session's
   metrics pass allocates O(tunnels), not O(events). *)
let of_packed_report report p =
  let s = scan () in
  let n = Trace.Packed.length p in
  for i = 0 to n - 1 do
    let t = Trace.Packed.at p i in
    stamp s t;
    match Trace.Packed.tag p i with
    | 0 ->
      on_send s ~chan:(Trace.Packed.sig_chan p i) ~tun:(Trace.Packed.sig_tun p i) ~at:t
        (Trace.Packed.sig_signal p i)
    | 1 ->
      on_recv s ~chan:(Trace.Packed.sig_chan p i) ~tun:(Trace.Packed.sig_tun p i) ~at:t
        (Trace.Packed.sig_signal p i)
    | 4 -> s.n_slots <- s.n_slots + 1
    | 5 -> s.n_goals <- s.n_goals + 1
    | 6 -> on_net s (Trace.Packed.net_decision p i)
    | _ -> ()
  done;
  finish s ~events:n report

let of_packed p = of_packed_report (Monitor.replay_packed p) p

(* ------------------------------------------------------------------ *)
(* Merging per-session registries                                      *)

let empty : t =
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

type metrics = t

let bump tbl key n =
  Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* One running accumulator: counters add, sends pool by signal, and
   latency samples append in ascending order.  Folding [merge] instead
   would copy every pooled sample per registry, quadratic in fleet
   size. *)
module Acc = struct
  type t = {
    mutable events : int;
    mutable duration : float;
    sends : (string, int) Hashtbl.t;
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
    round_trip : Stats.t;
    time_to_flowing : Stats.t;
    mutable violations : int;
  }

  let create () =
    {
      events = 0;
      duration = 0.0;
      sends = Hashtbl.create 16;
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

  let add a (m : metrics) =
    a.events <- a.events + m.events;
    a.duration <- a.duration +. m.duration;
    List.iter (fun (k, v) -> bump a.sends k v) m.sends_by_signal;
    a.recvs <- a.recvs + m.recvs;
    a.slot_transitions <- a.slot_transitions + m.slot_transitions;
    a.goal_changes <- a.goal_changes + m.goal_changes;
    a.open_races <- a.open_races + m.open_races;
    a.drops <- a.drops + m.drops;
    a.dups <- a.dups + m.dups;
    a.retransmissions <- a.retransmissions + m.retransmissions;
    a.retries_exhausted <- a.retries_exhausted + m.retries_exhausted;
    a.dup_suppressed <- a.dup_suppressed + m.dup_suppressed;
    a.acks <- a.acks + m.acks;
    Stats.append a.round_trip m.round_trip;
    Stats.append a.time_to_flowing m.time_to_flowing;
    a.violations <- a.violations + m.violations

  let finish a : metrics =
    {
      events = a.events;
      duration = a.duration;
      sends_by_signal = sort_sends (Hashtbl.fold (fun k v acc -> (k, v) :: acc) a.sends []);
      recvs = a.recvs;
      slot_transitions = a.slot_transitions;
      goal_changes = a.goal_changes;
      open_races = a.open_races;
      drops = a.drops;
      dups = a.dups;
      retransmissions = a.retransmissions;
      retries_exhausted = a.retries_exhausted;
      dup_suppressed = a.dup_suppressed;
      acks = a.acks;
      round_trip = a.round_trip;
      time_to_flowing = a.time_to_flowing;
      violations = a.violations;
    }
end

let merge_all ms =
  let a = Acc.create () in
  List.iter (Acc.add a) ms;
  Acc.finish a

let merge a b = merge_all [ a; b ]

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
