open Mediactl_types

type t = {
  owner : string;
  addr : Address.t;
  codecs : Codec.t list;
  willing : Codec.t list;
  mute : Mute.t;
  version : int;
}

let endpoint' ~owner ?willing ?(mute = Mute.none) addr codecs =
  if owner = "" then invalid_arg "Local.endpoint: empty owner";
  let willing = Option.value willing ~default:codecs in
  { owner; addr; codecs; willing; mute; version = 0 }

let endpoint ~owner addr codecs = endpoint' ~owner addr codecs

let server ~owner =
  {
    owner;
    addr = Address.v "0.0.0.0" 1;
    codecs = [];
    willing = [];
    mute = Mute.both;
    version = 0;
  }

let descriptor t =
  if t.mute.Mute.mute_in || t.codecs = [] then
    Descriptor.no_media ~owner:t.owner ~version:t.version t.addr
  else Descriptor.make ~owner:t.owner ~version:t.version t.addr t.codecs

let selector_for t desc =
  Selector.answer desc ~sender:t.addr ~willing:t.willing
    ~mute_out:(t.mute.Mute.mute_out || t.willing = [])

let modify t mute = { t with mute; version = t.version + 1 }

let pp ppf t =
  Format.fprintf ppf "%s@%a v%d %a" t.owner Address.pp t.addr t.version Mute.pp t.mute
