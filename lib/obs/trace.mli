(** Structured signal tracing.

    Every layer of the stack carries instrumentation points that emit
    timestamped structured events into the {e domain-local} sink: signal
    sends ({!Mediactl_signaling.Channel}), signal deliveries
    ({!Mediactl_runtime.Netsys}), slot-state transitions
    ({!Mediactl_protocol.Slot}), goal-state changes (the
    [Mediactl_core] goal objects), and drop / duplicate / retransmit
    decisions ([Mediactl_net]).

    The design is near-zero-cost when disabled: each site guards itself
    with {!enabled} — a domain-local lookup, a load, and a branch, no
    allocation — so the model checker and the benchmarks pay essentially
    nothing for the instrumentation.

    The sink, its sequence counter, and the clock live in domain-local
    storage ([Domain.DLS]), one independent context per domain.  A fleet
    shard that records a session therefore cannot race with — or leak
    events into — sessions recording on other domains: each session's
    trace is numbered [0..n-1] by its own counter.  Ownership rule: a
    sink is installed, fed, and removed by the domain that runs the
    session; handing a sink to another domain is a programming error the
    type system cannot catch, so don't.  Within one domain, sessions
    record one at a time ({!recording} is not reentrant). *)

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

type sink = event -> unit

(** {2 The domain-local sink} *)

val enabled : unit -> bool
(** Instrumentation sites call this before building an event. *)

val set_sink : sink option -> unit
(** Installing a sink resets the sequence counter; [None] disables
    tracing again. *)

val emit : kind -> unit
(** Timestamp, number, and dispatch an event.  No-op when disabled. *)

(** {2 Allocation-free emitters}

    One per event shape.  Inside {!recording_packed} these write fixed
    width int entries straight into the domain's flat ring buffer —
    strings interned, the signal as a {!Mediactl_types.Signal_pack}
    word — allocating nothing; under a plain sink they build the same
    structured {!event} that {!emit} would.  Hot instrumentation sites
    use these; {!emit} remains for call sites that already hold a
    [kind] value. *)

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

val reset_clock : unit -> unit

(** {2 Collecting} *)

type collector

val collector : unit -> collector
val sink_of : collector -> sink
val events : collector -> event list
(** In emission order. *)

val count : collector -> int

val recording : (unit -> 'a) -> 'a * event list
(** [recording f] runs [f] with a fresh collector installed as the sink
    and returns its result with the captured events; the previous sink
    and clock are cleared afterwards, also on exceptions. *)

(** {2 Packed traces}

    The zero-allocation recording path.  {!recording_packed} directs
    every emission into the domain's flat ring buffer (reused, with its
    capacity, across recordings on the same domain) and drains it at
    the end into a {!Packed.t}: a self-contained snapshot whose intern
    ids have been resolved, safe to ship across domains and to decode
    anywhere.  Event [i] of a packed trace is identical — field for
    field, including [seq = i] — to the [i]-th event the same run would
    have handed a sink. *)

module Packed : sig
  type t

  val length : t -> int
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

  (** Net-entry (tag 6) accessors.  [net_decision] rebuilds the
      decision value (one small allocation for the payload-carrying
      constructors). *)

  val net_chan : t -> int -> string
  val net_decision : t -> int -> net_decision

  val kind : t -> int -> kind
  (** Decode one entry to the structured form (allocates). *)

  val event : t -> int -> event

  val to_events : t -> event list
  (** The whole trace as the equivalent event list — byte-compatible
      with what a sink recording of the same run would have collected. *)

  val iter : (event -> unit) -> t -> unit

  val add_jsonl : Buffer.t -> t -> unit
  (** [add_jsonl b t] appends the trace's JSONL form to [b]: line [i] is
      [event_to_json (event t i)] followed by a newline.  It is written
      straight from the packed arrays — no entry is decoded, each
      distinct signal is rendered once — so it is the cheap way to hash
      or export a packed trace. *)

  val empty : t
  (** The zero-length trace ([append empty t = t]); a cheap slot filler
      for pooled per-session bookkeeping. *)

  val append : t -> t -> t
  (** [append a b] is the events of [a] followed by those of [b] as one
      self-contained trace: the second segment's string ids and signal
      indices are rewritten against the merged tables, timestamps are
      preserved verbatim, and event [i] of the result reads [seq = i].
      This is how a churned session's setup and teardown recording
      brackets are joined into one session trace at retirement. *)
end

val recording_packed : (unit -> 'a) -> 'a * Packed.t
(** Ring-buffer variant of {!recording}: emissions write int entries
    into the domain-local ring; the trace is drained at the end into a
    portable {!Packed.t}.  Not reentrant, and must not be nested with
    {!recording}. *)

(** {2 Rendering} *)

val pp_kind : Format.formatter -> kind -> unit
val pp_event : Format.formatter -> event -> unit

val event_to_json : event -> string
(** One JSON object, no trailing newline.  Built by the same field
    writers as {!Packed.add_jsonl}. *)

val write_jsonl : string -> event list -> unit
(** [write_jsonl path events] writes one JSON object per line. *)
