open Mediactl_sim
open Mediactl_runtime

type counters = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
}

let fresh_counters () = { sent = 0; delivered = 0; dropped = 0; duplicated = 0 }

type t = {
  rng : Rng.t;
  seed : int;
  default : Policy.t;
  policies : (string, Policy.t) Hashtbl.t;
  by_chan : (string, counters) Hashtbl.t;
  total : counters;
}

let create ?(seed = 42) ?(default = Policy.ideal) () =
  {
    rng = Rng.create seed;
    seed;
    default;
    policies = Hashtbl.create 8;
    by_chan = Hashtbl.create 8;
    total = fresh_counters ();
  }

let seed t = t.seed

let set_policy t ~chan p = Hashtbl.replace t.policies chan p

let policy t ~chan =
  match Hashtbl.find_opt t.policies chan with
  | Some p -> p
  | None -> t.default

let partition t ~chan = set_policy t ~chan { (policy t ~chan) with Policy.up = false }
let heal t ~chan = set_policy t ~chan { (policy t ~chan) with Policy.up = true }

let counters t ~chan =
  match Hashtbl.find_opt t.by_chan chan with
  | Some c -> c
  | None ->
    let c = fresh_counters () in
    Hashtbl.add t.by_chan chan c;
    c

let total t = t.total

let jitter_of t (p : Policy.t) =
  if p.Policy.jitter > 0.0 then Rng.exponential t.rng ~mean:p.Policy.jitter else 0.0

let fate t ~chan =
  let p = policy t ~chan in
  let c = counters t ~chan in
  c.sent <- c.sent + 1;
  t.total.sent <- t.total.sent + 1;
  let lost = (not p.Policy.up) || (p.Policy.drop > 0.0 && Rng.float t.rng 1.0 < p.Policy.drop) in
  if lost then begin
    c.dropped <- c.dropped + 1;
    t.total.dropped <- t.total.dropped + 1;
    if Mediactl_obs.Trace.enabled () then
      Mediactl_obs.Trace.net ~chan Mediactl_obs.Trace.Dropped;
    []
  end
  else begin
    let first = jitter_of t p in
    let copies =
      if p.Policy.dup > 0.0 && Rng.float t.rng 1.0 < p.Policy.dup then begin
        c.duplicated <- c.duplicated + 1;
        t.total.duplicated <- t.total.duplicated + 1;
        [ first; first +. jitter_of t p ]
      end
      else [ first ]
    in
    let n = List.length copies in
    c.delivered <- c.delivered + n;
    t.total.delivered <- t.total.delivered + n;
    if Mediactl_obs.Trace.enabled () then
      Mediactl_obs.Trace.net ~chan (Mediactl_obs.Trace.Passed n);
    copies
  end

let ack_fate t ~chan =
  let p = policy t ~chan in
  if (not p.Policy.up) || (p.Policy.drop > 0.0 && Rng.float t.rng 1.0 < p.Policy.drop) then None
  else Some (jitter_of t p)

let pp_counters ppf c =
  Format.fprintf ppf "sent=%d delivered=%d dropped=%d duplicated=%d" c.sent c.delivered
    c.dropped c.duplicated

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Hashtbl.iter
    (fun chan c -> if c.sent > 0 then Format.fprintf ppf "%-8s %a@ " chan pp_counters c)
    t.by_chan;
  Format.fprintf ppf "total    %a@]" pp_counters t.total

let attach t sim =
  Timed.set_impairment sim (fun _sim frame -> fate t ~chan:frame.Timed.f_send.Netsys.s_chan)
