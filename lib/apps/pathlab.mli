(** Live counterparts of the model checker's path configurations.

    [build] assembles the same box topology the checker's
    [Mediactl_mc.Path_model] explores — two goal-bearing endpoints [L]
    and [R] joined by zero or more flowlink boxes — as a real [Netsys]
    network, so a simulated run of e.g. [openslot--fl--openslot] can be
    traced and its captured trace checked by {!Mediactl_obs.Monitor}
    against the very obligation the checker proves. *)

open Mediactl_core
open Mediactl_runtime

val build :
  ?left:Semantics.end_kind ->
  ?right:Semantics.end_kind ->
  ?flowlinks:int ->
  unit ->
  Netsys.t
(** Defaults: [openslot--openslot] with no flowlinks.  Channel [chN]
    connects node [N] to node [N+1]; [L] initiates [ch0]. *)

val topology : ?flowlinks:int -> unit -> Netsys.t
(** The same network with the end slots still unbound (and therefore no
    signal yet in flight): bind the ends through {!engage_left} and
    {!engage_right} under [Timed.apply] so a timed run carries the
    whole handshake. *)

val engage_left : Semantics.end_kind -> Netsys.t -> Netsys.t * Netsys.send list
val engage_right : Semantics.end_kind -> flowlinks:int -> Netsys.t -> Netsys.t * Netsys.send list

val left_slot : Netsys.slot_ref
val right_slot : flowlinks:int -> Netsys.slot_ref

val ends : flowlinks:int -> Mediactl_obs.Monitor.ends
(** The end-slot coordinates as they appear in trace events. *)

val both_flowing : flowlinks:int -> Netsys.t -> bool
val both_closed : flowlinks:int -> Netsys.t -> bool
