open Mediactl_types

type end_ = A | B

let opposite = function
  | A -> B
  | B -> A

(* Queues as plain lists of {e packed} signals ({!Signal_pack}), oldest
   first.  Tunnels hold at most a handful of signals, and structural
   equality matters more than asymptotics: tunnel contents are part of
   the model checker's state vector — which packing strengthens, since
   within a domain word equality {e is} signal equality.  A signal in
   flight is therefore one immediate int; the heap block only
   materialises again at {!receive}/{!peek}, and then as the interned
   (shared) representative, so transit allocates nothing per hop. *)
type t = { a_to_b : int list; b_to_a : int list }

let empty = { a_to_b = []; b_to_a = [] }

let send ~from signal t =
  let word = Signal_pack.pack signal in
  match from with
  | A -> { t with a_to_b = t.a_to_b @ [ word ] }
  | B -> { t with b_to_a = t.b_to_a @ [ word ] }

let receive ~at t =
  match at with
  | B -> (
    match t.a_to_b with
    | [] -> None
    | w :: rest -> Some (Signal_pack.unpack w, { t with a_to_b = rest }))
  | A -> (
    match t.b_to_a with
    | [] -> None
    | w :: rest -> Some (Signal_pack.unpack w, { t with b_to_a = rest }))

let peek ~at t =
  match at with
  | B -> ( match t.a_to_b with [] -> None | w :: _ -> Some (Signal_pack.unpack w))
  | A -> ( match t.b_to_a with [] -> None | w :: _ -> Some (Signal_pack.unpack w))

let queue_toward ~toward t =
  match toward with
  | B -> t.a_to_b
  | A -> t.b_to_a

let pending ~toward t = List.map Signal_pack.unpack (queue_toward ~toward t)

let has_pending ~toward t = match queue_toward ~toward t with [] -> false | _ :: _ -> true

let in_flight t = List.length t.a_to_b + List.length t.b_to_a

let is_empty t =
  match t.a_to_b, t.b_to_a with [], [] -> true | _ :: _, _ | _, _ :: _ -> false

(* Packed words are canonical within a domain, so word-list equality
   coincides with the old signal-list structural equality. *)
let equal t u =
  List.equal Int.equal t.a_to_b u.a_to_b && List.equal Int.equal t.b_to_a u.b_to_a

let pp ppf t =
  let pp_queue =
    Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") Signal.pp
  in
  Format.fprintf ppf "tunnel{->B:[%a] ->A:[%a]}" pp_queue
    (pending ~toward:B t) pp_queue (pending ~toward:A t)
