open Mediactl_types
open Mediactl_sim

type outstanding = { txn : int; body : Sip_msg.body option }

type t = {
  fabric : Fabric.t;
  name : string;
  peer : string;
  owner_of_dialog : bool;
  addr : Address.t;
  willing : Codec.t list;
  media : Sdp.line list;
  mutable version : int;
  mutable outstanding : outstanding option;
  mutable answered_txn : int option;  (* we sent 200(answer), awaiting ACK *)
  mutable remote : Sdp.t option;
  mutable history : (float * string) list;
  mutable own_done : float option;
  mutable glares : int;
  mutable retries : int;
}

let name t = t.name
let remote t = t.remote
let glares t = t.glares
let retries t = t.retries
let session_active t =
  match t.remote with
  | Some sdp -> Sdp.all_active sdp
  | None -> false

let history t = List.rev t.history
let own_done_at t = t.own_done

let record t sdp =
  t.remote <- Some sdp;
  t.history <- (Fabric.now t.fabric, sdp.Sdp.owner) :: t.history

let own_sdp t =
  t.version <- t.version + 1;
  Sdp.offer ~owner:t.name ~session_version:t.version t.media

let send t msg = Fabric.send t.fabric ~from_:t.name ~to_:t.peer msg

let start_invite t =
  let txn = Fabric.fresh_txn t.fabric in
  let body = Some (Sip_msg.Offer (own_sdp t)) in
  t.outstanding <- Some { txn; body };
  send t (Sip_msg.Invite { txn; body })

let retry_delay t =
  (* RFC 3261 section 14.1 glare back-off. *)
  let rng = Fabric.rng t.fabric in
  if t.owner_of_dialog then Rng.uniform rng ~lo:2100.0 ~hi:4000.0
  else Rng.uniform rng ~lo:0.0 ~hi:2000.0

let reinvite t =
  match t.outstanding with
  | Some _ -> ()  (* must wait for the ongoing transaction *)
  | None -> start_invite t

let handle t ~from:_ msg =
  match msg with
  | Sip_msg.Invite { txn; body } -> (
    match t.outstanding with
    | Some _ ->
      (* Glare: an invite transaction cannot overlap another on the
         same signaling path. *)
      send t (Sip_msg.Glare { txn })
    | None -> (
      match body with
      | Some (Sip_msg.Offer offer) -> (
        match Sdp.answer offer ~owner:t.name ~addr:t.addr ~willing:t.willing with
        | Some answer ->
          record t offer;
          t.answered_txn <- Some txn;
          send t (Sip_msg.Success { txn; body = Some (Sip_msg.Answer answer) })
        | None -> send t (Sip_msg.Glare { txn }))
      | Some (Sip_msg.Answer _) ->
        (* Malformed: an invite never carries an answer. *)
        send t (Sip_msg.Glare { txn })
      | None ->
        (* A solicitation (third-party call control): respond with a
           fresh offer; the answer will arrive in the ACK. *)
        t.answered_txn <- Some txn;
        send t (Sip_msg.Success { txn; body = Some (Sip_msg.Offer (own_sdp t)) })))
  | Sip_msg.Success { txn; body } -> (
    match t.outstanding with
    | Some o when o.txn = txn ->
      t.outstanding <- None;
      (match body with
      | Some (Sip_msg.Answer answer) ->
        record t answer;
        t.own_done <- Some (Fabric.now t.fabric);
        send t (Sip_msg.Ack { txn; body = None })
      | Some (Sip_msg.Offer _) | None ->
        (* Plain endpoints never solicit, so nothing sensible to do
           except complete the transaction. *)
        send t (Sip_msg.Ack { txn; body = None }))
    | Some _ | None -> ())
  | Sip_msg.Glare { txn } -> (
    match t.outstanding with
    | Some o when o.txn = txn ->
      t.outstanding <- None;
      t.glares <- t.glares + 1;
      t.retries <- t.retries + 1;
      Fabric.after t.fabric (retry_delay t) (fun () ->
          match t.outstanding with
          | None -> start_invite t
          | Some _ -> ())
    | Some _ | None -> ())
  | Sip_msg.Ack { txn; body } -> (
    match t.answered_txn with
    | Some expected when expected = txn ->
      t.answered_txn <- None;
      (match body with
      | Some (Sip_msg.Answer answer) ->
        (* We offered in our 200; the answer arrives in the ACK. *)
        record t answer
      | Some (Sip_msg.Offer _) | None -> ())
    | Some _ | None -> ())

let create fabric ~name ~peer ~owner_of_dialog addr ~willing ~media =
  let t =
    {
      fabric;
      name;
      peer;
      owner_of_dialog;
      addr;
      willing;
      media;
      version = 0;
      outstanding = None;
      answered_txn = None;
      remote = None;
      history = [];
      own_done = None;
      glares = 0;
      retries = 0;
    }
  in
  Fabric.register fabric name (handle t);
  t
