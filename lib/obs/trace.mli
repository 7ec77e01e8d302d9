(** Structured signal tracing.

    Every layer of the stack carries instrumentation points that emit
    timestamped structured events into the {e domain-local} ring:
    signal sends ({!Mediactl_signaling.Channel}), signal deliveries
    ({!Mediactl_runtime.Netsys}), slot-state transitions
    ({!Mediactl_protocol.Slot}), goal-state changes (the
    [Mediactl_core] goal objects), and drop / duplicate / retransmit
    decisions ([Mediactl_net]).

    The design is near-zero-cost when disabled: each site guards itself
    with {!enabled} — a domain-local lookup, a load, and a branch, no
    allocation — so the model checker and the benchmarks pay essentially
    nothing for the instrumentation.  Enabled, an emission writes a few
    int words into a flat buffer and allocates nothing.

    There is one way to record: {!recording_packed} brackets a run and
    returns its trace as a {!Packed.t}.  A long-lived recorder (the
    daemon) calls {!drain} inside its bracket to take the entries
    recorded so far, so that the ring never holds more than the events
    since the last drain; the segments are numbered as one continuous
    recording.

    The recording flag, the ring, its numbering, and the clock live in
    domain-local storage ([Domain.DLS]), one independent context per
    domain.  A fleet shard that records a session therefore cannot race
    with — or leak events into — sessions recording on other domains:
    each session's trace is numbered [0..n-1] by its own counter.
    Ownership rule: a recording is opened, fed, and drained by one
    domain; its packed traces may then go anywhere.  Within one domain,
    sessions record one at a time ({!recording_packed} is not
    reentrant). *)

type sig_event = {
  chan : string;  (** channel label, the [Netsys] channel name *)
  tun : int;
  box : string;  (** the acting box: sender of a send, receiver of a receive *)
  peer : string;
  initiator : bool;  (** the acting box is the channel initiator (the A end) *)
  signal : Mediactl_types.Signal.t;
}

(** What the network or the reliability layer decided about one frame. *)
type net_decision =
  | Dropped  (** the impaired network lost the frame *)
  | Passed of int  (** delivered; [Passed 2] is a network duplication *)
  | Retransmit of int  (** go-back-N retransmission, with its attempt number *)
  | Retry_exhausted  (** the sender gave up after [max_retries] *)
  | Dup_suppressed  (** sequence-number deduplication discarded a copy *)
  | Reorder_suppressed  (** go-back-N receiver discarded an out-of-order frame *)
  | Ack_sent
  | Ack_dropped

type kind =
  | Sig_send of sig_event
  | Sig_recv of sig_event
  | Meta_send of { chan : string; box : string }
  | Meta_recv of { chan : string; box : string }
  | Slot_transition of { slot : string; from_ : string; to_ : string; cause : string }
      (** [slot] is the slot label; [cause] the signal or operation name. *)
  | Goal of { goal : string; slot : string; from_ : string; to_ : string }
      (** A goal object drove or observed a slot-state change. *)
  | Net of { chan : string; decision : net_decision }

type event = { seq : int; at : float; kind : kind }
(** [seq] is the recording domain's emission counter (a total order even
    at equal timestamps, independent per domain); [at] is the current
    clock, in simulated milliseconds. *)

(** {2 The domain-local recording} *)

val enabled : unit -> bool
(** Instrumentation sites call this before building an event: true
    exactly inside a {!recording_packed} bracket on this domain. *)

val emit : kind -> unit
(** Timestamp and record an event.  No-op when disabled. *)

(** {2 Allocation-free emitters}

    One per event shape.  These write fixed width int entries straight
    into the domain's flat ring buffer — strings interned, the signal
    as a {!Mediactl_types.Signal_pack} word — without building a
    [kind] value.  Hot instrumentation sites use these; {!emit} remains
    for call sites that already hold a [kind] value. *)

val sig_send :
  chan:string -> tun:int -> box:string -> peer:string -> initiator:bool ->
  Mediactl_types.Signal.t -> unit

val sig_recv :
  chan:string -> tun:int -> box:string -> peer:string -> initiator:bool ->
  Mediactl_types.Signal.t -> unit

val meta_send : chan:string -> box:string -> unit
val meta_recv : chan:string -> box:string -> unit
val slot_transition : slot:string -> from_:string -> to_:string -> cause:string -> unit
val goal : goal:string -> slot:string -> from_:string -> to_:string -> unit
val net : chan:string -> net_decision -> unit

val set_clock : (unit -> float) -> unit
(** Timestamp source, typically [fun () -> Timed.now sim] (see
    {!Mediactl_runtime.Timed.observe}).  Defaults to a constant [0.];
    event ordering is then carried by [seq] alone. *)

(** {2 Packed traces}

    {!recording_packed} directs every emission into the domain's flat
    ring buffer (reused, with its capacity, across recordings on the
    same domain); {!drain} empties it into a {!Packed.t}: a
    self-contained snapshot whose entries decode without the recording
    domain, safe to ship across domains.  Entry [i] of a packed trace is
    numbered [seq = Packed.seq t i], counting from the start of the
    bracket.

    Cost.  A packed trace keeps the strings and signals its entries use,
    each once, and an entry's seven fields — its tag, its string and
    signal indices, and its plain ints — in one immutable byte string,
    at one width per trace: the narrowest of 1, 2, 4 or 8 bytes that
    holds the trace's widest field.  A trace's indices count only what
    it holds, not what its domain has interned, so a session's trace
    needs one byte per field unless it holds more than 128 distinct
    strings or signals, or a tunnel number or net count outside -128 to
    127.  An entry then costs 7 bytes and its timestamp 8; the accessors
    decode a field in place and allocate nothing. *)

module Packed : sig
  type t

  val length : t -> int

  val seq : t -> int -> int
  (** The sequence number of entry [i]: [i] plus the number of entries
      drained earlier in the same bracket. *)

  val tag : t -> int -> int
  (** Entry shape: 0 [Sig_send], 1 [Sig_recv], 2 [Meta_send],
      3 [Meta_recv], 4 [Slot_transition], 5 [Goal], 6 [Net]. *)

  val at : t -> int -> float

  (** Field accessors for signal entries (tags 0 and 1); the returned
      strings and signals are shared (interned), so scanning a packed
      trace through these allocates nothing per event. *)

  val sig_chan : t -> int -> string
  val sig_tun : t -> int -> int
  val sig_box : t -> int -> string
  val sig_peer : t -> int -> string
  val sig_initiator : t -> int -> bool
  val sig_signal : t -> int -> Mediactl_types.Signal.t

  val entry_chan : t -> int -> string
  (** The channel of a signal, meta or net entry (tags 0–3 and 6).
      @raise Invalid_argument on a slot or goal entry. *)

  val net_decision : t -> int -> net_decision
  (** Of a net entry (tag 6); rebuilds the decision value (one small
      allocation for the payload-carrying constructors). *)

  val kind : t -> int -> kind
  (** Decode one entry to the structured form (allocates). *)

  val event : t -> int -> event

  val to_events : t -> event list
  (** The whole trace decoded, for printing and tests. *)

  val iter : (event -> unit) -> t -> unit

  val add_jsonl : Buffer.t -> t -> unit
  (** [add_jsonl b t] appends the trace's JSONL form to [b]: line [i] is
      [event_to_json (event t i)] followed by a newline, so the JSONL of
      consecutive drains concatenates to that of one bracket.  It is written
      straight from the packed arrays — no entry is decoded, each
      distinct signal is rendered once — so it is the cheap way to hash
      or export a packed trace.

      Cost.  Every entry's sequence number and timestamp are written.
      On the domain that recorded the trace, the rest of an entry's line
      is copied from a memo of the lines that domain has rendered, when
      an equal entry (the same strings, signal and fields) is there; the
      memo has a fixed number of slots and is made on the domain's first
      render.  Any other entry, and every entry of a trace rendered on
      another domain or joined from two domains' segments, is written
      field by field. *)

  val empty : t
  (** The zero-length trace ([append empty t = t]); a cheap slot filler
      for pooled per-session bookkeeping. *)

  val append : t -> t -> t
  (** [append a b] is the events of [a] followed by those of [b] as one
      self-contained trace: timestamps are preserved verbatim, and the
      result is numbered on from [a]'s first entry.  This is how a
      churned session's setup and teardown recording brackets are
      joined into one session trace at retirement.

      Cost.  The join copies both traces' entries, writing them at the
      width the joined fields need ([b]'s indices move past [a]'s), and
      concatenates their string and signal tables: it costs what the two
      traces hold, whichever domains recorded them and however much
      those domains have interned.  Two segments recorded on one domain
      keep rendering on it through the memo of {!add_jsonl}; a join of
      two domains' segments renders field by field. *)
end

val recording_packed : (unit -> 'a) -> 'a * Packed.t
(** [recording_packed f] runs [f] with tracing enabled on this domain,
    numbering entries from 0, and returns its result with the entries
    recorded since the last {!drain} (all of them, if [f] never
    drains).  Tracing is disabled and the clock reset afterwards, also
    on exceptions.  Not reentrant. *)

val drain : unit -> Packed.t
(** Inside a {!recording_packed} bracket: the entries recorded since
    the previous drain (or the start of the bracket), emptying the
    ring.  Its cost is linear in the entries it returns.
    @raise Invalid_argument outside a bracket. *)

(** {2 Captures}

    A capture keeps what one function recorded, so that a later bracket
    can have the same entries without running the function again: this
    is how a scenario settles its starting network once per domain and
    replays the settle's entries into every later session's trace.

    {b Valid only on the recording domain.}  A capture holds the raw
    ring words: interned string ids and {!Mediactl_types.Signal_pack}
    words, as they are.  Both stay valid for as long as the recording
    domain lives — its string table is append-only and its signal
    intern tables are never cleared — and mean nothing on any other
    domain.  Keep captures in domain-local storage. *)

type capture

val capture : (unit -> 'a) -> 'a * capture
(** [capture f] runs [f] and returns its result with a copy of the
    entries [f] recorded into the current bracket; they stay in the
    bracket too.  Outside a bracket [f] records nothing and the capture
    is empty.  @raise Invalid_argument if [f] drains the ring. *)

val replay : capture -> unit
(** [replay cap] appends [cap]'s entries to the current bracket, as if
    they were emitted now: they take the bracket's next sequence
    numbers and the clock's current value, whatever the clock read when
    they were captured.  Outside a bracket it does nothing, like every
    emitter.  Its cost is one copy of the entries.
    @raise Invalid_argument inside a bracket on a domain other than
    the one that recorded [cap]. *)

(** {2 Rendering} *)

val pp_kind : Format.formatter -> kind -> unit

val pp_msc : Format.formatter -> Packed.t -> unit
(** The message-sequence chart of a recorded run, in the style of the
    paper's Figures 10 and 13: one line per [Sig_recv] entry, oldest
    first, giving the time the receiver's reaction committed, the
    sending and receiving boxes, the channel and tunnel, and the
    signal.  To chart only a timed run, leave its untimed settle out
    of the packed trace (drain the bracket after the settle). *)

val event_to_json : event -> string
(** One JSON object, no trailing newline.  Built by the same field
    writers as {!Packed.add_jsonl}. *)
