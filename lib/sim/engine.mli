(** A small discrete-event simulation engine.

    Events are opaque to the engine; the driver supplies a handler that
    reacts to each event (mutating its own world and scheduling further
    events).  Events sit on a {!Pqueue} keyed by [(time, seq)], [seq]
    counting schedules, so simultaneous events fire in scheduling order
    and runs are deterministic. *)

type 'e t

val create : unit -> 'e t

val now : 'e t -> float
(** Current simulation time; starts at 0. *)

val schedule : 'e t -> delay:float -> 'e -> unit
(** Schedule an event [delay] time units from now.  Raises
    [Invalid_argument] on negative delays. *)

val run : 'e t -> ?until:float -> ?max_events:int -> ('e t -> 'e -> unit) -> int
(** Process events in timestamp order until the queue is empty, the
    clock passes [until], or [max_events] events have fired.  Returns
    the number of events processed.  A run that empties the queue
    releases its storage ({!Pqueue.release}), so an idle engine holds
    no arrays; a later {!schedule} continues from the same clock and
    sequence counter. *)
