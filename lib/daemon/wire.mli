(** The binary wire codec for section VI signals between daemons.

    Frames travel length-prefixed (u32 big-endian payload length, then a
    versioned tag-dispatched payload) over a stream socket.  The byte
    discipline follows [Path_model.pack] — explicit tags, u16
    length-prefixed strings, codecs as table indices — and uses no
    [Marshal], so a frame is canonical, bounded ({!max_payload}), and
    safe to parse from an untrusted peer.

    Decoding is total: malformed input of any kind (bad version, unknown
    tag, truncated or oversized payload, trailing bytes) yields [Error],
    never an exception or a misparsed frame. *)

open Mediactl_types
open Mediactl_core

type frame =
  | Hello of { chan : string; origin : Semantics.end_kind; accept : Semantics.end_kind }
      (** opens a bridge: the receiving daemon creates its half of call
          [chan] and engages [accept] on the far end slot.  [origin] is
          the kind the originator engaged, so both daemons derive the
          same section V obligation for the call. *)
  | Signal_f of { chan : string; tun : int; signal : Signal.t }
      (** one section VI signal crossing the bridge in tunnel [tun] *)
  | Bye of { chan : string }
      (** tears the bridge down: the receiving daemon drives its half
          of [chan] closed *)

val version : int
(** Codec version carried in every payload (currently 1). *)

val magic : string
(** ["MCW1"] — the 4 bytes a wire peer sends first on a fresh
    connection, letting a daemon listener distinguish binary wire peers
    from newline-ASCII control clients on the same port. *)

val max_payload : int

val encode : frame -> string
(** The complete length-prefixed encoding, ready to write to a socket.
    Raises [Invalid_argument] if a string field exceeds 1024 bytes
    or a codec is not in [Codec.all] (impossible for values built by
    this library). *)

val decode_payload : string -> (frame, string) result
(** Decode one payload (without its length prefix).  Exposed for tests;
    socket readers use {!decoder}. *)

(** {1 Incremental decoding}

    A {!decoder} accumulates raw socket bytes and yields complete
    frames as they become available.  Errors are sticky — one malformed
    frame loses the framing — so a connection that yields [Error] must
    be closed. *)

type decoder

val decoder : unit -> decoder
val feed : decoder -> string -> unit

val next : decoder -> (frame, string) result option
(** [None] when no complete frame is buffered yet. *)

val buffered : decoder -> int
(** Bytes currently buffered (diagnostics). *)

val equal : frame -> frame -> bool

val kind_name : Semantics.end_kind -> string
(** ["open"], ["close"], ["hold"] — the names the control plane also
    speaks. *)

val pp : Format.formatter -> frame -> unit
