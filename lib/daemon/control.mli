(** The control-plane protocol: newline-delimited ASCII requests an
    operator (or {e mediactl_ctl}) sends to a running daemon, and the
    [OK]/[ERR]/[CALL] response conventions the daemon answers with.
    Parsing is total — malformed lines come back as [Error] with a
    message the daemon relays verbatim in its [ERR] reply. *)

open Mediactl_core

type request =
  | Ping
  | Create of { id : string; left : Semantics.end_kind; right : Semantics.end_kind }
      (** a local call: both path ends live in this daemon *)
  | Dial of {
      id : string;
      addr : Transport.addr;
      left : Semantics.end_kind;
      right : Semantics.end_kind;
    }
      (** a bridged call: the left end lives here, the right end in the
          daemon at [addr], signals crossing the {!Wire} bridge *)
  | Hold of string  (** rebind the call's local end to a holdslot *)
  | Resume of string  (** rebind the call's local end to an openslot *)
  | Teardown of string  (** drive both ends closed (and the bridge down) *)
  | Status of string option  (** all calls, or one *)
  | Wait of { id : string; what : [ `Flowing | `Closed ]; timeout_ms : float }
      (** answer when the call's local end reaches the state, or [ERR]
          at the timeout, which is finite and positive *)
  | Quit

val parse : string -> (request, string) result
val render : request -> string

val kind_to_string : Semantics.end_kind -> string
val what_to_string : [ `Flowing | `Closed ] -> string

val ok : ('a, unit, string, string) format4 -> 'a
(** Format an [OK ...] response line. *)

val error : ('a, unit, string, string) format4 -> 'a
(** Format an [ERR ...] response line. *)

val is_ok : string -> bool

val final_line : string -> bool
(** True when this response line completes the request — every line
    except the [CALL ...] items preceding a [STATUS] summary. *)

(** {2 A blocking client}

    What {e mediactl_ctl} and the examples use to talk to a daemon in
    another process: one request at a time, each call blocking until
    the request is answered. *)

type client

val connect : Transport.addr -> client
(** @raise Unix.Unix_error when the daemon cannot be reached. *)

val request : client -> request -> (string list * string, string) result
(** Send one request and read its whole answer: the [CALL] lines a
    [STATUS] puts first, then the final [OK]/[ERR] line.  [Error] when
    the daemon closes the connection before answering.
    @raise Unix.Unix_error if the daemon is gone when the request is
    sent. *)

val close : client -> unit
