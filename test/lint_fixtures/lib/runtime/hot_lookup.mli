(* Interface for the hot-path lookup fixture. *)

val mem_str : string -> (string * 'a) list -> bool
val seen : (string * 'a) list -> string list -> string -> bool
