(** Findings: what a lint analyzer reports, with stable rule IDs.

    Each rule has a fixed severity; only {!Unused_allow} is a warning
    (reported but never failing), everything else is an error and makes
    the lint exit non-zero. *)

type severity = Error | Warning

type rule =
  | Dsan  (** DSAN001: module-toplevel mutable state in a multi-domain library *)
  | Totality  (** TOT001: wildcard branch over [Signal.t]/[Slot_state.t] *)
  | Hygiene  (** HYG001: unguarded [Trace.emit]/metrics bump on a hot path *)
  | Iface  (** IFACE001: lib/ module without an [.mli] interface *)
  | Marshal  (** MARS001: any [Marshal] use *)
  | Fmt
      (** FMT001: whitespace discipline — tabs, trailing whitespace, CRLF,
          missing final newline.  The mechanical subset of the pinned
          ocamlformat profile, enforced textually because the formatter
          binary is not in the build image; no attribute waiver (the rule
          runs before parsing), the fix is always mechanical. *)
  | Alloc
      (** ALLOC001: syntactic allocation site inside a function reachable
          (over the intra-repo call graph) from a [@@lint.hotpath] root.
          Waived with the [alloc] tag; justifications cross-reference the
          E15 allocation profile. *)
  | Bad_allow  (** LINT001: malformed [@@lint.allow] attribute *)
  | Unused_allow  (** LINT002: [@@lint.allow] that suppressed nothing *)
  | Parse_error  (** PARSE001: source file does not parse *)

val rule_id : rule -> string
val all_rules : rule list

val rule_of_tag : string -> rule option
(** Maps an allowlist tag ([race], [totality], [hygiene], [iface],
    [marshal], [alloc]) to the rule it waives. *)

val tag_of_rule : rule -> string
val severity_of_rule : rule -> severity

val rule_doc : rule -> string
(** One-line description of a rule (SARIF rule metadata, help text). *)

type t = { rule : rule; file : string; line : int; col : int; message : string }

val severity : t -> severity

type allowed = { a_rule : rule; a_file : string; a_line : int; justification : string }

val make : rule:rule -> file:string -> line:int -> col:int -> string -> t

val compare : t -> t -> int
(** Orders by (file, line, col, rule id) for deterministic reports. *)

val severity_name : severity -> string
val pp : Format.formatter -> t -> unit
val str : string -> string
(** JSON string literal with escaping (shared by the report writer). *)

val to_json : t -> string
val allowed_to_json : allowed -> string
