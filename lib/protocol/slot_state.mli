(** Protocol states of a slot (paper Figure 9).

    The four states of the media-channel user interface (Figure 5) —
    [Closed], [Opening], [Opened], [Flowing] — plus the extra protocol
    state [Closing], not observable in the user interface, in which a
    [close] has been sent and its [closeack] is awaited. *)

type t = Closed | Opening | Opened | Flowing | Closing

val is_live : t -> bool
(** [Opening], [Opened], or [Flowing] — the "live" shorthand of the
    flowlink state-matching diagram (paper Figure 12). *)

val all : t list
val equal : t -> t -> bool
val compare : t -> t -> int
val to_string : t -> string
val pp : Format.formatter -> t -> unit
