(** The wall-clock engine: a single-threaded poll(2) event loop
    with one-shot timers, the real-time counterpart of the simulator's
    {!Mediactl_sim.Engine}.  The daemon's whole runtime — protocol
    reactions through {!Mediactl_runtime.Timed}, socket readiness,
    control-plane timeouts — is driven by one of these loops, so no
    locking is needed anywhere above it.

    Time is reported in {e milliseconds since [create]}, matching the
    simulator's unit so the same [n]/[c] latency parameters (and the
    paper's analytic formulas) apply unchanged to a live run. *)

type t

val create : unit -> t

val now : t -> float
(** Wall milliseconds since [create]. *)

val after : t -> delay:float -> (unit -> unit) -> unit
(** Run a thunk once [delay] ms from now (negative delays clamp to 0).
    Safe to call from within timer and fd callbacks. *)

val on_readable : t -> Unix.file_descr -> (unit -> unit) -> unit
(** Invoke the callback whenever [fd] polls readable, whatever its
    number.  Re-registering an fd replaces its callback. *)

val remove_fd : t -> Unix.file_descr -> unit
(** Stop watching [fd] (call before closing it). *)

val run : t -> unit
(** Drive the loop until {!stop}, or until no timer is pending and no
    fd is watched.  Due timers always run before the next poll.
    @raise Invalid_argument on reentry. *)

val stop : t -> unit
(** Make {!run} return after the current callback. *)

val pending_timers : t -> int

val driver :
  ?n:float -> ?c:float -> t -> Mediactl_runtime.Netsys.t -> Mediactl_runtime.Timed.t
(** [driver t net] is {!Mediactl_runtime.Timed.create_external} wired to
    this loop's clock and timers: the same timed protocol driver the
    simulator uses, now advancing in real time.  Defaults [n] = 34.0,
    [c] = 20.0 ms, the paper's section VIII-C parameters. *)
