open Mediactl_types
open Mediactl_core

(* Length-prefixed binary framing for section VI signals, in the same
   hand-rolled byte-codec discipline as [Path_model.pack]: explicit tag
   bytes, length-prefixed strings, table-indexed codecs — and no
   [Marshal], so frames are canonical, bounded, and safe to parse from
   an untrusted peer (MARS001 stays clean by construction).

   Unlike the checker's codec, nothing here may rely on provenance: a
   peer process can legitimately send descriptors with any owner,
   address, or codec list, so descriptors and selectors are encoded in
   full.

   Frame layout: u32 big-endian payload length, then the payload:

     byte 0          codec version (1)
     byte 1          frame tag: 0 hello, 1 signal, 2 bye
     ...             tag-specific fields

   Strings are u16 big-endian length + bytes.  Decoding is total:
   every malformed input — bad version, unknown tag, oversized length,
   payload bytes left over or missing — yields [Error], never an
   exception or a wrong frame. *)

type frame =
  | Hello of { chan : string; origin : Semantics.end_kind; accept : Semantics.end_kind }
      (** opens a bridge: the callee creates its half of the call on
          channel [chan] and engages [accept] on its end slot; [origin]
          is the kind engaged at the originator, carried so both
          daemons derive the same section V obligation *)
  | Signal_f of { chan : string; tun : int; signal : Signal.t }
  | Bye of { chan : string }
      (** tears the bridge down: the callee rebinds its end to a
          closeslot so both halves close cleanly *)

let version = 1
let magic = "MCW1"
let max_payload = 0xFFFF
let max_string = 1024

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)

let byte b n = Buffer.add_char b (Char.chr (n land 0xff))

let u16 b n =
  byte b (n lsr 8);
  byte b n

let str b s =
  if String.length s > max_string then invalid_arg "Wire: string field too long";
  u16 b (String.length s);
  Buffer.add_string b s

let kind_code = function
  | Semantics.Open_end -> 0
  | Semantics.Close_end -> 1
  | Semantics.Hold_end -> 2

let medium_code = function
  | Medium.Audio -> 0
  | Medium.Video -> 1
  | Medium.Text -> 2
  | Medium.Audio_video -> 3

let codec_code c =
  let rec idx i = function
    | [] -> invalid_arg "Wire: unknown codec"
    | c' :: rest -> if Codec.equal c c' then i else idx (i + 1) rest
  in
  idx 0 Codec.all

let put_addr b (a : Address.t) =
  str b a.Address.host;
  u16 b a.Address.port

let put_desc b (d : Descriptor.t) =
  str b d.Descriptor.owner;
  u16 b d.Descriptor.version;
  put_addr b d.Descriptor.addr;
  match d.Descriptor.offer with
  | Descriptor.No_media -> byte b 0
  | Descriptor.Media codecs ->
    byte b 1;
    byte b (List.length codecs);
    List.iter (fun c -> byte b (codec_code c)) codecs

let put_sel b (s : Selector.t) =
  let owner, version = s.Selector.responds_to in
  str b owner;
  u16 b version;
  put_addr b s.Selector.sender;
  match s.Selector.choice with
  | Selector.No_media -> byte b 0
  | Selector.Chosen c -> byte b (1 + codec_code c)

let put_signal b = function
  | Signal.Open (m, d) ->
    byte b 0;
    byte b (medium_code m);
    put_desc b d
  | Signal.Oack d ->
    byte b 1;
    put_desc b d
  | Signal.Close -> byte b 2
  | Signal.Closeack -> byte b 3
  | Signal.Describe d ->
    byte b 4;
    put_desc b d
  | Signal.Select s ->
    byte b 5;
    put_sel b s

let encode frame =
  let b = Buffer.create 64 in
  byte b version;
  (match frame with
  | Hello { chan; origin; accept } ->
    byte b 0;
    str b chan;
    byte b (kind_code origin);
    byte b (kind_code accept)
  | Signal_f { chan; tun; signal } ->
    byte b 1;
    str b chan;
    byte b tun;
    put_signal b signal
  | Bye { chan } ->
    byte b 2;
    str b chan);
  let payload = Buffer.contents b in
  let n = String.length payload in
  let out = Buffer.create (n + 4) in
  byte out (n lsr 24);
  byte out (n lsr 16);
  byte out (n lsr 8);
  byte out n;
  Buffer.add_string out payload;
  Buffer.contents out

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)

exception Bad of string

type reader = { buf : string; mutable pos : int }

let rd r =
  if r.pos >= String.length r.buf then raise (Bad "truncated payload");
  let c = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  c

let rd_u16 r =
  let hi = rd r in
  (hi lsl 8) lor rd r

let rd_str r =
  let n = rd_u16 r in
  if n > max_string then raise (Bad "string field too long");
  if r.pos + n > String.length r.buf then raise (Bad "truncated string");
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let kind_of_code = function
  | 0 -> Semantics.Open_end
  | 1 -> Semantics.Close_end
  | 2 -> Semantics.Hold_end
  | n -> raise (Bad (Printf.sprintf "unknown end-kind code %d" n))

let medium_of_code = function
  | 0 -> Medium.Audio
  | 1 -> Medium.Video
  | 2 -> Medium.Text
  | 3 -> Medium.Audio_video
  | n -> raise (Bad (Printf.sprintf "unknown medium code %d" n))

let codec_of_code n =
  match List.nth_opt Codec.all n with
  | Some c -> c
  | None -> raise (Bad (Printf.sprintf "unknown codec code %d" n))

let rd_addr r =
  let host = rd_str r in
  let port = rd_u16 r in
  match Address.v host port with
  | a -> a
  | exception Invalid_argument msg -> raise (Bad msg)

let rd_desc r =
  let owner = rd_str r in
  let version = rd_u16 r in
  let addr = rd_addr r in
  match rd r with
  | 0 ->
    (match Descriptor.no_media ~owner ~version addr with
    | d -> d
    | exception Invalid_argument msg -> raise (Bad msg))
  | 1 ->
    let n = rd r in
    let rec codecs i = if i = 0 then [] else let c = codec_of_code (rd r) in c :: codecs (i - 1) in
    (match Descriptor.make ~owner ~version addr (codecs n) with
    | d -> d
    | exception Invalid_argument msg -> raise (Bad msg))
  | n -> raise (Bad (Printf.sprintf "unknown offer tag %d" n))

let rd_sel r =
  let owner = rd_str r in
  let version = rd_u16 r in
  let sender = rd_addr r in
  let choice =
    match rd r with
    | 0 -> Selector.No_media
    | n -> Selector.Chosen (codec_of_code (n - 1))
  in
  Selector.make ~responds_to:(owner, version) ~sender choice

let rd_signal r =
  match rd r with
  | 0 ->
    let m = medium_of_code (rd r) in
    Signal.Open (m, rd_desc r)
  | 1 -> Signal.Oack (rd_desc r)
  | 2 -> Signal.Close
  | 3 -> Signal.Closeack
  | 4 -> Signal.Describe (rd_desc r)
  | 5 -> Signal.Select (rd_sel r)
  | n -> raise (Bad (Printf.sprintf "unknown signal tag %d" n))

let decode_payload payload =
  let r = { buf = payload; pos = 0 } in
  match
    if rd r <> version then raise (Bad "unsupported codec version");
    let frame =
      match rd r with
      | 0 ->
        let chan = rd_str r in
        let origin = kind_of_code (rd r) in
        Hello { chan; origin; accept = kind_of_code (rd r) }
      | 1 ->
        let chan = rd_str r in
        let tun = rd r in
        Signal_f { chan; tun; signal = rd_signal r }
      | 2 -> Bye { chan = rd_str r }
      | n -> raise (Bad (Printf.sprintf "unknown frame tag %d" n))
    in
    if r.pos <> String.length payload then raise (Bad "trailing bytes in payload");
    frame
  with
  | frame -> Ok frame
  | exception Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Incremental decoding                                                *)

(* A decoder accumulates raw socket bytes and yields complete frames.
   Errors are sticky: one malformed frame poisons the stream (framing
   is lost), so the owning connection must be closed. *)
type decoder = { mutable data : string; mutable dead : string option }

let decoder () = { data = ""; dead = None }

let feed d s = if d.dead = None then d.data <- d.data ^ s

let buffered d = String.length d.data

let next d =
  match d.dead with
  | Some msg -> Some (Error msg)
  | None ->
    let avail = String.length d.data in
    if avail < 4 then None
    else
      let len =
        (Char.code d.data.[0] lsl 24)
        lor (Char.code d.data.[1] lsl 16)
        lor (Char.code d.data.[2] lsl 8)
        lor Char.code d.data.[3]
      in
      if len < 2 || len > max_payload then begin
        d.dead <- Some (Printf.sprintf "bad frame length %d" len);
        Some (Error (Option.get d.dead))
      end
      else if avail < 4 + len then None
      else begin
        let payload = String.sub d.data 4 len in
        d.data <- String.sub d.data (4 + len) (avail - 4 - len);
        match decode_payload payload with
        | Ok frame -> Some (Ok frame)
        | Error msg ->
          d.dead <- Some msg;
          Some (Error msg)
      end

(* ------------------------------------------------------------------ *)

let equal a b =
  match a, b with
  | Hello h1, Hello h2 ->
    String.equal h1.chan h2.chan && h1.origin = h2.origin && h1.accept = h2.accept
  | Signal_f s1, Signal_f s2 ->
    String.equal s1.chan s2.chan && s1.tun = s2.tun && Signal.equal s1.signal s2.signal
  | Bye b1, Bye b2 -> String.equal b1.chan b2.chan
  | (Hello _ | Signal_f _ | Bye _), _ -> false

let kind_name = function
  | Semantics.Open_end -> "open"
  | Semantics.Close_end -> "close"
  | Semantics.Hold_end -> "hold"

let pp ppf = function
  | Hello { chan; origin; accept } ->
    Format.fprintf ppf "hello(%s, %s/%s)" chan (kind_name origin) (kind_name accept)
  | Signal_f { chan; tun; signal } -> Format.fprintf ppf "%s.%d %a" chan tun Signal.pp signal
  | Bye { chan } -> Format.fprintf ppf "bye(%s)" chan
