(** The lint driver: walks a source tree, applies each analyzer to its
    scoped files, and assembles a deterministic report.

    Scoping is by path relative to [root] (always '/'-separated):
    - DSAN001 and IFACE001: every [lib/**.ml]
    - TOT001: [lib/protocol/], [lib/core/], [lib/mc/], [lib/daemon/],
      [lib/obs/monitor.ml]
    - HYG001: [lib/sim/], [lib/runtime/], [lib/net/], [lib/protocol/],
      [lib/signaling/], [lib/core/], [lib/daemon/], [lib/apps/]
    - MARS001: every scanned file
    - ALLOC001: every scanned file — scope is the reachable set of the
      tree-wide callgraph, not a path prefix.

    [_build], dot/underscore-prefixed entries and [test/lint_fixtures]
    are never scanned, so the fixture corpus is linted only by its own
    [--root test/lint_fixtures] invocation (whose mirrored [lib/...]
    layout re-creates the scopes above). *)

type rule_set = {
  dsan : bool;
  totality : bool;
  hygiene : bool;
  iface : bool;
  marshal : bool;
  fmt : bool;
  alloc : bool;
}

val all_rules : rule_set

val rule_set_of_names : string list -> rule_set
(** From CLI names: [dsan], [totality], [hygiene], [iface], [marshal],
    [fmt], [alloc]. *)

val scan_files : string -> string list
(** Relative paths of every [.ml] under the root, sorted, exclusions
    applied. *)

val lint_sources :
  ?rules:rule_set ->
  (string * bool * string) list ->
  Finding.t list * Finding.allowed list
(** Lint several in-memory compilation units — (rel, has_mli, source)
    — as one tree: ALLOC001's callgraph spans all of them.  Used by
    the interprocedural tests. *)

val lint_source :
  ?rules:rule_set ->
  rel:string ->
  has_mli:bool ->
  string ->
  Finding.t list * Finding.allowed list
(** Lint one compilation unit from source text; [rel] drives scoping.
    ALLOC001 sees a single-file callgraph.  Used directly by the test
    suite. *)

val lint_file :
  ?rules:rule_set -> root:string -> string -> Finding.t list * Finding.allowed list

type report = {
  root : string;
  files : int;
  findings : Finding.t list;
  allowed : Finding.allowed list;
}

val errors : report -> Finding.t list
val warnings : report -> Finding.t list

val clean : report -> bool
(** No error-severity findings (warnings alone stay green). *)

val run : ?rules:rule_set -> root:string -> unit -> report
val pp_text : Format.formatter -> report -> unit

val to_json : report -> string
(** The byte-stable JSON report (golden-diffed under runtest). *)

val to_sarif : report -> string
(** SARIF 2.1.0 for GitHub code scanning: one result per finding plus
    suppressed results carrying each waiver's justification.  A
    separate serialization — adding it leaves {!to_json} byte-stable. *)
