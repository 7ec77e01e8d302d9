(** The seeded network-impairment engine.

    Draws, deterministically from a seed, the fate of every frame a
    {!Mediactl_runtime.Timed} driver emits: delivered (with per-copy
    extra transit delay), duplicated, or lost.  Policies are per
    channel, with a default for channels never mentioned; links can be
    partitioned and healed mid-run.  Per-channel and aggregate counters
    record what the network did so convergence can be observed rather
    than assumed.

    Equal seeds and equal call sequences give equal fates, so impaired
    simulations are exactly as reproducible as unimpaired ones. *)

type counters = {
  mutable sent : int;  (** frames offered to the link *)
  mutable delivered : int;  (** copies scheduled for delivery *)
  mutable dropped : int;  (** frames lost, including while partitioned *)
  mutable duplicated : int;  (** extra copies created *)
}

type t

val create : ?seed:int -> ?default:Policy.t -> unit -> t
(** Default seed 42; default policy {!Policy.ideal}. *)

val seed : t -> int

val policy : t -> chan:string -> Policy.t
(** The channel's policy, falling back to the default. *)

val partition : t -> chan:string -> unit
(** Take the link down: every subsequent frame (and ack) is lost until
    {!heal}. *)

val heal : t -> chan:string -> unit

val fate : t -> chan:string -> float list
(** Draw the fate of one data frame on the channel: the extra transit
    delays of the copies to deliver; [[]] means lost.  Updates the
    counters. *)

val ack_fate : t -> chan:string -> float option
(** Draw the fate of one (bookkeeping) acknowledgement on the channel:
    [None] = lost, [Some d] = delivered with extra delay [d].  Does not
    touch the data-frame counters. *)

val counters : t -> chan:string -> counters
val total : t -> counters
(** Aggregate over all channels. *)

val pp_counters : Format.formatter -> counters -> unit
val pp : Format.formatter -> t -> unit
(** One line per channel with non-trivial counters. *)

val attach : t -> Mediactl_runtime.Timed.t -> unit
(** Install this engine as the driver's impairment hook — the {e raw}
    impaired network, with no retransmission layer: losses wedge and
    duplicates reach the protocol (harmless only for the idempotent
    describe/select signals).  Use {!Reliable.attach} instead for the
    full reliability stack. *)
