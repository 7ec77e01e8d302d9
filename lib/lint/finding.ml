type severity = Error | Warning

type rule =
  | Dsan  (** DSAN001: module-toplevel mutable state in a multi-domain library *)
  | Totality  (** TOT001: wildcard branch over [Signal.t]/[Slot_state.t] *)
  | Hygiene  (** HYG001: unguarded [Trace.emit]/metrics bump on a hot path *)
  | Iface  (** IFACE001: lib/ module without an [.mli] interface *)
  | Marshal  (** MARS001: any [Marshal] use *)
  | Fmt  (** FMT001: whitespace discipline (tabs, trailing space, CRLF, final newline) *)
  | Alloc  (** ALLOC001: allocation site reachable from a [@@lint.hotpath] root *)
  | Bad_allow  (** LINT001: malformed [@@lint.allow] attribute *)
  | Unused_allow  (** LINT002: [@@lint.allow] that suppressed nothing *)
  | Parse_error  (** PARSE001: source file does not parse *)

let rule_id = function
  | Dsan -> "DSAN001"
  | Totality -> "TOT001"
  | Hygiene -> "HYG001"
  | Iface -> "IFACE001"
  | Marshal -> "MARS001"
  | Fmt -> "FMT001"
  | Alloc -> "ALLOC001"
  | Bad_allow -> "LINT001"
  | Unused_allow -> "LINT002"
  | Parse_error -> "PARSE001"

let all_rules =
  [ Dsan; Totality; Hygiene; Iface; Marshal; Fmt; Alloc; Bad_allow; Unused_allow; Parse_error ]

let rule_of_tag = function
  | "race" -> Some Dsan
  | "totality" -> Some Totality
  | "hygiene" -> Some Hygiene
  | "iface" -> Some Iface
  | "marshal" -> Some Marshal
  | "alloc" -> Some Alloc
  | _ -> None

let tag_of_rule = function
  | Dsan -> "race"
  | Totality -> "totality"
  | Hygiene -> "hygiene"
  | Iface -> "iface"
  | Marshal -> "marshal"
  | Alloc -> "alloc"
  | Fmt | Bad_allow | Unused_allow | Parse_error -> "-"

let severity_of_rule = function
  | Unused_allow -> Warning
  | Dsan | Totality | Hygiene | Iface | Marshal | Fmt | Alloc | Bad_allow | Parse_error -> Error

(* One-line rule descriptions, shared by the SARIF writer and the CLI
   help text. *)
let rule_doc = function
  | Dsan -> "module-toplevel mutable state in a multi-domain library"
  | Totality -> "wildcard branch over a protocol sum type (Signal.t/Slot_state.t)"
  | Hygiene -> "unguarded Trace/Metrics emission on a hot path"
  | Iface -> "lib/ module without an .mli interface"
  | Marshal -> "Marshal use (sharing-sensitive, non-canonical serialisation)"
  | Fmt -> "whitespace discipline (tabs, trailing space, CRLF, final newline)"
  | Alloc -> "allocation site reachable from a [@@lint.hotpath] root"
  | Bad_allow -> "malformed [@@lint.allow] attribute"
  | Unused_allow -> "[@@lint.allow] that suppressed nothing"
  | Parse_error -> "source file does not parse"

type t = { rule : rule; file : string; line : int; col : int; message : string }

let severity f = severity_of_rule f.rule

(* An allowlisted (suppressed) finding: where, which rule, and the
   justification string the author supplied. *)
type allowed = { a_rule : rule; a_file : string; a_line : int; justification : string }

let make ~rule ~file ~line ~col message = { rule; file; line; col; message }

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare (rule_id a.rule) (rule_id b.rule)

let severity_name = function Error -> "error" | Warning -> "warning"

let pp ppf f =
  Format.fprintf ppf "%s:%d:%d: %s %s: %s" f.file f.line f.col
    (severity_name (severity f))
    (rule_id f.rule) f.message

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

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

let to_json f =
  Printf.sprintf "{\"rule\":%s,\"severity\":%s,\"file\":%s,\"line\":%d,\"col\":%d,\"message\":%s}"
    (str (rule_id f.rule))
    (str (severity_name (severity f)))
    (str f.file) f.line f.col (str f.message)

let allowed_to_json a =
  Printf.sprintf "{\"rule\":%s,\"file\":%s,\"line\":%d,\"justification\":%s}"
    (str (rule_id a.a_rule))
    (str a.a_file) a.a_line (str a.justification)
