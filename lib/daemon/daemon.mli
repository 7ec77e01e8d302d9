(** The media-control daemon: one {!Wallclock} select loop driving one
    shared network that carries every call, one listening socket, and
    one long trace recording, drained as it runs.

    The listener speaks both protocols on the same address: a fresh
    connection whose first four bytes are {!Wire.magic} is a binary
    wire peer (another daemon bridging a call here); anything else is
    a newline-ASCII {!Control} client.

    Bridged calls ride the runtime's impairment hook: frames addressed
    to a call's proxy box are shipped to the peer daemon and delivered
    into its network, with synthetic proxy-side trace events keeping
    each daemon's recording complete for the Fig. 5 monitor (see
    {!Call}).

    {!run} records the daemon's whole life in one
    [Trace.recording_packed] bracket on the calling domain, and drains
    it after every socket read, every protocol timer, before answering
    [STATUS], and at shutdown.  Each drained entry that names a call's
    channel steps that call's own monitor, which [STATUS] judges; the
    trace itself is not kept, so neither memory nor the cost of
    [STATUS] grows with uptime.  With [trace_path], every drained
    segment is appended to that file as JSON lines, numbered as one
    recording.

    Creating a daemon ignores [SIGPIPE] (a vanished peer must surface
    as [EPIPE]). *)

open Mediactl_runtime

type t

val create :
  ?n:float ->
  ?c:float ->
  ?trace_path:string ->
  ?log:(string -> unit) ->
  listener:(Unix.file_descr * Transport.addr) ->
  unit ->
  t
(** [create ~listener:(Transport.listen addr) ()] builds a daemon
    around an already-bound listener — passed as an fd so a parent
    process can bind (learning an ephemeral port) before forking the
    daemon child.  [n]/[c] are the driver's latency parameters;
    [trace_path], if given, is created now and receives the JSONL
    trace as it is drained; [log] gets one human line per notable
    event (default: silent). *)

val run : t -> unit
(** Record and drive the loop until a [QUIT] request or {!shutdown}.
    Not reentrant on one domain: a second daemon runs on another. *)

val shutdown : t -> unit
(** Close every connection and the listener, drain the trace and close
    its file, and stop the loop.  Idempotent. *)

val loop : t -> Wallclock.t
val driver : t -> Timed.t
val bound : t -> Transport.addr
val calls : t -> Call.t list
