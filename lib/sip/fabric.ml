open Mediactl_sim

type event =
  | Deliver of { from_ : string; to_ : string; msg : Sip_msg.t }
  | Act of (unit -> unit)  (* an [after] action, dropped once it fires *)

type t = {
  engine : event Engine.t;
  rng : Rng.t;
  n : float;
  c : float;
  mutable handlers : (string * (from:string -> Sip_msg.t -> unit)) list;
  mutable message_count : int;
  mutable txn_seq : int;
}

let create ?(seed = 7) ?(n = 34.0) ?(c = 20.0) () =
  {
    engine = Engine.create ();
    rng = Rng.create seed;
    n;
    c;
    handlers = [];
    message_count = 0;
    txn_seq = 0;
  }

let n t = t.n
let c t = t.c
let now t = Engine.now t.engine
let rng t = t.rng

let register t name handler =
  t.handlers <- (name, handler) :: List.remove_assoc name t.handlers

let send t ~from_ ~to_ msg =
  t.message_count <- t.message_count + 1;
  Engine.schedule t.engine ~delay:(t.n +. t.c) (Deliver { from_; to_; msg })

let after t delay f = Engine.schedule t.engine ~delay (Act f)

let handle t = function
  | Deliver { from_; to_; msg } -> (
    match List.assoc_opt to_ t.handlers with
    | Some handler -> handler ~from:from_ msg
    | None -> ())
  | Act f -> f ()

let run ?until ?max_events t = Engine.run t.engine ?until ?max_events (fun _ e -> handle t e)

let messages t = t.message_count

let fresh_txn t =
  t.txn_seq <- t.txn_seq + 1;
  t.txn_seq
