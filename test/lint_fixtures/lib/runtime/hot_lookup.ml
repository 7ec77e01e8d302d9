(* Fixture: hot-path key lookups.  [List.mem_assoc] and [List.mem]
   find their key with polymorphic compare and must surface as
   ALLOC001; the [String.equal] walk beside them stays silent. *)

let rec mem_str name = function
  | [] -> false
  | (k, _) :: rest -> String.equal k name || mem_str name rest

let seen table names name = mem_str name table || List.mem_assoc name table || List.mem name names
[@@lint.hotpath]
