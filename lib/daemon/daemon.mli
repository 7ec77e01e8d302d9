(** The media-control daemon: one {!Wallclock} select loop driving
    every call on its own two-box network and driver, one listening
    socket, and one long trace recording, drained as it runs.

    The listener speaks both protocols on the same address: a fresh
    connection whose first four bytes are {!Wire.magic} is a binary
    wire peer (another daemon bridging a call here); anything else is
    a newline-ASCII {!Control} client.  A wire connection acts only on
    the calls bridged over it.

    A bridged call's own driver carries the runtime's impairment hook,
    which ships the frames its real end emits to the peer daemon, and
    the peer injects them into its own copy of the call; synthetic
    proxy-side trace events keep each daemon's recording complete for
    the Fig. 5 monitor (see {!Call}).  A local call's signals ride the
    reliable path, as a simulated session's do.

    {!run} records the daemon's whole life in one
    [Trace.recording_packed] bracket on the calling domain, and drains
    it after every socket read, every protocol timer, before answering
    [STATUS], and at shutdown.  Each drained entry that names a call's
    channel steps that call's own monitor, which [STATUS] judges; the
    trace itself is not kept, so neither a [STATUS] nor the memory the
    trace takes grows with uptime.  Finished calls are not retired,
    though: each keeps its network, driver and monitor.  With
    [trace_path], every drained segment is appended to that file as
    JSON lines, numbered as one recording.

    Creating a daemon ignores [SIGPIPE] (a vanished peer must surface
    as [EPIPE]). *)

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
    daemon child.  [n]/[c] are every call driver's latency parameters;
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
val bound : t -> Transport.addr
val calls : t -> Call.t list
