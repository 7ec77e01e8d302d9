(** The paper's running example (Figures 2, 3, and 13): telephones A and
    B behind an IP PBX, a prepaid-card server PC serving caller C, and an
    audio-signaling resource V providing PC's user interface.

    The network:

    {v
      A --a-- PBX --pc-- PC --c-- C
               |          |
               b          v
               |          |
               B          V
    v}

    Each transition function applies the goal-object rebindings one box
    program performs when it changes state; composing them replays the
    four snapshots of Figure 3.  The same operations driven concurrently
    under the timed executor reproduce the Figure-13 convergence scenario
    whose latency the paper computes as [2n + 3c]. *)

open Mediactl_runtime

(** An operation a box program performs: rebind goals, possibly emitting
    signals. *)
type op = Netsys.t -> Netsys.t * Netsys.send list

val build : unit -> Netsys.t
(** Topology plus the original A—B call bindings (A openslot, PBX
    flowlink a–b, B holdslot) and the permanent endpoint goals of C's
    side (V holdslot, PC flowlink c–pc and holdslot v); C has not yet
    dialled.  Run to quiescence to reach the "A talking to B" state. *)

val snapshot1 : op
(** C dials A via the prepaid server; A switches to C: C opens; the PBX
    relinks a–pc and holds b. *)

val snapshot2 : op
(** The prepaid funds run out: PC relinks c–v and holds its PBX side. *)

val snapshot3 : op
(** A switches back to B: the PBX relinks a–b and holds its PC side. *)

val snapshot4_pc : op
(** V verified payment: PC relinks c–pc and holds v. *)

val snapshot4_pbx : op
(** The PBX switches A back toward C: relinks a–pc and holds b. *)

val fig13_start : unit -> Netsys.t
(** {!build} and snapshots 1–3, each run to quiescence: the network
    Figure 13 starts from. *)

val fig13 :
  n:float -> c:float -> ?attach:(Timed.t -> unit) -> Netsys.t -> float * float
(** [fig13 ~n ~c net]: Figure 13.  Both of snapshot 4's rebindings
    ({!snapshot4_pc} and {!snapshot4_pbx}) are applied to [net] (a
    {!fig13_start}) at t = 0 under a fresh timed driver, which then runs
    to quiescence.  Returns the first time A transmits toward C and the
    first time C transmits toward A ([nan] if never); the paper computes
    both as [2n + 3c].  [attach] runs on the driver before the watches
    and the rebindings: point the trace clock at it, or put an impaired
    network under it. *)

val expected_flows : int -> (string * string) list
(** The directed media flows Figure 3 shows after each snapshot (1-4);
    snapshot 0 is the initial A—B call. *)

val flows : Netsys.t -> (string * string) list
(** The directed flows currently enabled, as sorted box-name pairs. *)
