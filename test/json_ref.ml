(* The reference JSON rendering of trace events: the original
   [Printf.sprintf] renderer, kept verbatim as a test oracle.  The
   library's Buffer-direct writers ([Trace.event_to_json],
   [Trace.Packed.add_jsonl]) must reproduce its bytes exactly — every
   fleet digest hashes them. *)

open Mediactl_types
open Mediactl_obs.Trace

let decision_name = function
  | Dropped -> "dropped"
  | Passed 1 -> "passed"
  | Passed _ -> "duplicated"
  | Retransmit _ -> "retransmit"
  | Retry_exhausted -> "retry-exhausted"
  | Dup_suppressed -> "dup-suppressed"
  | Reorder_suppressed -> "reorder-suppressed"
  | Ack_sent -> "ack"
  | Ack_dropped -> "ack-dropped"

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let str s = Printf.sprintf "\"%s\"" (json_escape s)

let desc_json d =
  let owner, version = Descriptor.id d in
  Printf.sprintf "{\"owner\":%s,\"version\":%d,\"media\":%b}" (str owner) version
    (Descriptor.offers_media d)

let sel_json (s : Selector.t) =
  let owner, version = s.Selector.responds_to in
  Printf.sprintf "{\"responds_to\":{\"owner\":%s,\"version\":%d},\"codec\":%s}" (str owner)
    version
    (match Selector.codec s with
    | None -> "null"
    | Some c -> str (Format.asprintf "%a" Codec.pp c))

let signal_json signal =
  let base = Printf.sprintf "\"signal\":%s" (str (Signal.name signal)) in
  let payload =
    match Signal.descriptor signal, Signal.selector signal with
    | Some d, _ -> Printf.sprintf ",\"desc\":%s" (desc_json d)
    | None, Some s -> Printf.sprintf ",\"sel\":%s" (sel_json s)
    | None, None -> ""
  in
  base ^ payload

let sig_json tag { chan; tun; box; peer; initiator; signal } =
  Printf.sprintf "\"kind\":%s,\"chan\":%s,\"tun\":%d,\"box\":%s,\"peer\":%s,\"initiator\":%b,%s"
    (str tag) (str chan) tun (str box) (str peer) initiator (signal_json signal)

let kind_json = function
  | Sig_send s -> sig_json "sig_send" s
  | Sig_recv s -> sig_json "sig_recv" s
  | Meta_send { chan; box } ->
    Printf.sprintf "\"kind\":\"meta_send\",\"chan\":%s,\"box\":%s" (str chan) (str box)
  | Meta_recv { chan; box } ->
    Printf.sprintf "\"kind\":\"meta_recv\",\"chan\":%s,\"box\":%s" (str chan) (str box)
  | Slot_transition { slot; from_; to_; cause } ->
    Printf.sprintf "\"kind\":\"slot\",\"slot\":%s,\"from\":%s,\"to\":%s,\"cause\":%s" (str slot)
      (str from_) (str to_) (str cause)
  | Goal { goal; slot; from_; to_ } ->
    Printf.sprintf "\"kind\":\"goal\",\"goal\":%s,\"slot\":%s,\"from\":%s,\"to\":%s" (str goal)
      (str slot) (str from_) (str to_)
  | Net { chan; decision } ->
    let extra =
      match decision with
      | Passed n -> Printf.sprintf ",\"copies\":%d" n
      | Retransmit attempt -> Printf.sprintf ",\"attempt\":%d" attempt
      | Dropped | Retry_exhausted | Dup_suppressed | Reorder_suppressed | Ack_sent
      | Ack_dropped ->
        ""
    in
    Printf.sprintf "\"kind\":\"net\",\"chan\":%s,\"decision\":%s%s" (str chan)
      (str (decision_name decision))
      extra

let event_to_json (e : event) =
  Printf.sprintf "{\"seq\":%d,\"t\":%.3f,%s}" e.seq e.at (kind_json e.kind)
