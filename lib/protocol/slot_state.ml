type t = Closed | Opening | Opened | Flowing | Closing

let is_live = function
  | Opening | Opened | Flowing -> true
  | Closed | Closing -> false

let all = [ Closed; Opening; Opened; Flowing; Closing ]

let equal a b =
  match a, b with
  | Closed, Closed | Opening, Opening | Opened, Opened | Flowing, Flowing | Closing, Closing ->
    true
  | (Closed | Opening | Opened | Flowing | Closing), _ -> false
let compare = Stdlib.compare

let to_string = function
  | Closed -> "closed"
  | Opening -> "opening"
  | Opened -> "opened"
  | Flowing -> "flowing"
  | Closing -> "closing"

let pp ppf s = Format.pp_print_string ppf (to_string s)
