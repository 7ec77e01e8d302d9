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

let bump tbl key n =
  Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* By descending count, ties by signal name: never by [Hashtbl] order,
   which depends on how merged registries were interleaved. *)
let sends_list sends =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) sends []
  |> List.sort (fun (ka, a) (kb, b) ->
         match Int.compare b a with 0 -> String.compare ka kb | c -> c)

(* Round-trip per tunnel: the initiator-side open send to the matching
   oack receipt — one signaling round across however many hops the
   channel's frames take. *)
let round_trips events =
  let open_at : (string * int, float) Hashtbl.t = Hashtbl.create 8 in
  let stats = Stats.create () in
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.kind with
      | Trace.Sig_send { chan; tun; signal = Mediactl_types.Signal.Open _; _ } ->
        if not (Hashtbl.mem open_at (chan, tun)) then
          Hashtbl.add open_at (chan, tun) e.Trace.at
      | Trace.Sig_recv { chan; tun; signal = Mediactl_types.Signal.Oack _; _ } -> (
        match Hashtbl.find_opt open_at (chan, tun) with
        | Some t0 ->
          Stats.add stats (e.Trace.at -. t0);
          Hashtbl.remove open_at (chan, tun)
        | None -> ())
      | _ -> ())
    events;
  stats

let of_events events =
  let sends = Hashtbl.create 8 in
  let recvs = ref 0 in
  let slot_transitions = ref 0 in
  let goal_changes = ref 0 in
  let drops = ref 0 in
  let dups = ref 0 in
  let retransmissions = ref 0 in
  let retries_exhausted = ref 0 in
  let dup_suppressed = ref 0 in
  let acks = ref 0 in
  let t_min = ref infinity and t_max = ref neg_infinity in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.at < !t_min then t_min := e.Trace.at;
      if e.Trace.at > !t_max then t_max := e.Trace.at;
      match e.Trace.kind with
      | Trace.Sig_send { signal; _ } -> bump sends (Mediactl_types.Signal.name signal) 1
      | Trace.Sig_recv _ -> incr recvs
      | Trace.Slot_transition _ -> incr slot_transitions
      | Trace.Goal _ -> incr goal_changes
      | Trace.Meta_send _ | Trace.Meta_recv _ -> ()
      | Trace.Net { decision; _ } -> (
        match decision with
        | Trace.Dropped -> incr drops
        | Trace.Passed n -> if n > 1 then incr dups
        | Trace.Retransmit _ -> incr retransmissions
        | Trace.Retry_exhausted -> incr retries_exhausted
        | Trace.Dup_suppressed | Trace.Reorder_suppressed -> incr dup_suppressed
        | Trace.Ack_sent -> incr acks
        | Trace.Ack_dropped -> ()))
    events;
  let monitor = Monitor.replay events in
  let time_to_flowing = Stats.create () in
  let start = if !t_min = infinity then 0.0 else !t_min in
  List.iter
    (fun (r : Monitor.tunnel_report) ->
      match r.Monitor.first_all_flowing with
      | Some t -> Stats.add time_to_flowing (t -. start)
      | None -> ())
    monitor.Monitor.tunnels;
  {
    events = List.length events;
    duration = (if !t_max >= !t_min then !t_max -. !t_min else 0.0);
    sends_by_signal =
      sends_list sends;
    recvs = !recvs;
    slot_transitions = !slot_transitions;
    goal_changes = !goal_changes;
    open_races =
      List.fold_left (fun acc r -> acc + r.Monitor.races) 0 monitor.Monitor.tunnels;
    drops = !drops;
    dups = !dups;
    retransmissions = !retransmissions;
    retries_exhausted = !retries_exhausted;
    dup_suppressed = !dup_suppressed;
    acks = !acks;
    round_trip = round_trips events;
    time_to_flowing;
    violations = List.length monitor.Monitor.violations;
  }

(* ------------------------------------------------------------------ *)
(* Packed traces                                                       *)

(* The packed twins scan the flat ring capture through the
   [Trace.Packed] field accessors: no per-event record is built, so a
   fleet session's metrics pass allocates O(tunnels), not O(events). *)

let round_trips_packed p =
  let open_at : (string * int, float) Hashtbl.t = Hashtbl.create 8 in
  let stats = Stats.create () in
  let n = Trace.Packed.length p in
  for i = 0 to n - 1 do
    let tg = Trace.Packed.tag p i in
    if tg = 0 then begin
      match Trace.Packed.sig_signal p i with
      | Mediactl_types.Signal.Open _ ->
        let key = (Trace.Packed.sig_chan p i, Trace.Packed.sig_tun p i) in
        if not (Hashtbl.mem open_at key) then Hashtbl.add open_at key (Trace.Packed.at p i)
      | _ -> ()
    end
    else if tg = 1 then
      match Trace.Packed.sig_signal p i with
      | Mediactl_types.Signal.Oack _ -> (
        let key = (Trace.Packed.sig_chan p i, Trace.Packed.sig_tun p i) in
        match Hashtbl.find_opt open_at key with
        | Some t0 ->
          Stats.add stats (Trace.Packed.at p i -. t0);
          Hashtbl.remove open_at key
        | None -> ())
      | _ -> ()
  done;
  stats

let of_packed p =
  let sends = Hashtbl.create 8 in
  let recvs = ref 0 in
  let slot_transitions = ref 0 in
  let goal_changes = ref 0 in
  let drops = ref 0 in
  let dups = ref 0 in
  let retransmissions = ref 0 in
  let retries_exhausted = ref 0 in
  let dup_suppressed = ref 0 in
  let acks = ref 0 in
  let t_min = ref infinity and t_max = ref neg_infinity in
  let n = Trace.Packed.length p in
  for i = 0 to n - 1 do
    let at = Trace.Packed.at p i in
    if at < !t_min then t_min := at;
    if at > !t_max then t_max := at;
    match Trace.Packed.tag p i with
    | 0 -> bump sends (Mediactl_types.Signal.name (Trace.Packed.sig_signal p i)) 1
    | 1 -> incr recvs
    | 4 -> incr slot_transitions
    | 5 -> incr goal_changes
    | 6 -> (
      match Trace.Packed.net_decision p i with
      | Trace.Dropped -> incr drops
      | Trace.Passed n -> if n > 1 then incr dups
      | Trace.Retransmit _ -> incr retransmissions
      | Trace.Retry_exhausted -> incr retries_exhausted
      | Trace.Dup_suppressed | Trace.Reorder_suppressed -> incr dup_suppressed
      | Trace.Ack_sent -> incr acks
      | Trace.Ack_dropped -> ())
    | _ -> ()
  done;
  let monitor = Monitor.replay_packed p in
  let time_to_flowing = Stats.create () in
  let start = if !t_min = infinity then 0.0 else !t_min in
  List.iter
    (fun (r : Monitor.tunnel_report) ->
      match r.Monitor.first_all_flowing with
      | Some t -> Stats.add time_to_flowing (t -. start)
      | None -> ())
    monitor.Monitor.tunnels;
  {
    events = n;
    duration = (if !t_max >= !t_min then !t_max -. !t_min else 0.0);
    sends_by_signal =
      sends_list sends;
    recvs = !recvs;
    slot_transitions = !slot_transitions;
    goal_changes = !goal_changes;
    open_races =
      List.fold_left (fun acc r -> acc + r.Monitor.races) 0 monitor.Monitor.tunnels;
    drops = !drops;
    dups = !dups;
    retransmissions = !retransmissions;
    retries_exhausted = !retries_exhausted;
    dup_suppressed = !dup_suppressed;
    acks = !acks;
    round_trip = round_trips_packed p;
    time_to_flowing;
    violations = List.length monitor.Monitor.violations;
  }

(* ------------------------------------------------------------------ *)
(* Merging per-session registries                                      *)

let empty =
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
      sends_by_signal = sends_list a.sends;
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

let pp ppf m =
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
let to_json m =
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
