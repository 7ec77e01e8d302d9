(** Autonomous user devices for scenarios.

    A device is a media endpoint that acts on its own (paper section I):
    it can accept or decline channels offered to it.  Installing a device
    on a box makes the box react automatically whenever a signaling
    channel reaches it:

    - [Answers]: announce availability and accept media channels (a
      holdslot under the device's media face);
    - [Busy]: announce unavailability and reject media channels;
    - [No_answer]: announce availability but never pick up — the channel
      stays half-open until the caller gives up (its slot is left
      passive, as a ringing phone is). *)

open Mediactl_core

type behavior = Answers | Busy | No_answer

val install : Timed.t -> box:string -> Local.t -> behavior -> unit

val hang_up : Timed.t -> box:string -> chan:string -> unit
(** The device's user abandons the call: a [Teardown] meta-signal toward
    the peer box. *)

