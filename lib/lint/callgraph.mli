(** Syntactic intra-repo call graph: the interprocedural substrate for
    ALLOC001 and any future reachability-based rule.

    Nodes are named function-literal bindings — top level, inside
    nested modules, and local [let f x = ...] at any depth — qualified
    by their lexical path (["Fleet.churn.shard.on_tick"]; the head segment
    comes from the file name).  An edge is any identifier reference in
    a node's body (nested nodes' bodies excluded) that resolves to an
    intra-repo node by qualified-suffix matching; ambiguous references
    resolve to every candidate (over-approximation), references that
    resolve to nothing (parameters, fields, stdlib, module aliases)
    contribute no edge.  Roots carry [@@lint.hotpath] (empty payload)
    on their binding.  See DESIGN section 16. *)

type node = {
  id : int;
  name : string;
  segs : string list;
  file : string;
  line : int;
  col : int;
  hot : bool;
  local : bool;
  attrs : Parsetree.attributes list;
      (** Innermost-first lexical chain: the node's own binding
          attributes, then each enclosing binding's — so a waiver on an
          enclosing function covers its local helpers. *)
  body : Parsetree.expression;
  arity : int;
  mutable edges : int list;
}

type t

val build : (string * Parsetree.structure) list -> t
(** [build units] over (rel-path, parsed structure) pairs.  Everything
    is deterministic given the input order. *)

val node : t -> int -> node
val size : t -> int

val roots : t -> int list
(** Ids of [@@lint.hotpath]-annotated nodes, in definition order. *)

val resolve : t -> file:string -> string list -> int list
(** Candidate node ids for an identifier path referenced from [file].
    Used by ALLOC001's partial-application check. *)

val reach : t -> (int, int option) Hashtbl.t
(** BFS from the roots: maps each reachable node id to its BFS parent
    ([None] for roots). *)

val chain : t -> (int, int option) Hashtbl.t -> int -> string list
(** Root-first call chain ["Fleet.drain_timeline"; ...; "Pqueue.sift_down"]
    explaining why a node is reachable. *)

val notes : t -> (string * Location.t * string) list
(** Misused [@@lint.hotpath] annotations (payload given, or placed on
    a non-function binding), as (file, loc, message). *)

(** Shared helpers (ALLOC001 classifies local bindings with the same
    predicate the collector used, so the two stay in lockstep): *)

val binding_name : Parsetree.pattern -> string option
(** The bound variable name, looking through type constraints. *)

val strip_wrappers : Parsetree.expression -> Parsetree.expression
(** Drops [Pexp_constraint]/[Pexp_newtype] wrappers before the
    function-literal test. *)

val last_seg : string list -> string
