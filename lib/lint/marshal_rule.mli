(** MARS001 — flags any [Marshal.*] use; the canonical packed codec
    is the sanctioned serialisation. *)

val check : Ctx.t -> Parsetree.structure -> unit
