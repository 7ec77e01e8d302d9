open Parsetree

(* Interprocedural substrate (DESIGN section 16): one parse of the
   whole tree, a node per named function binding (top-level, inside
   nested modules, and *local* named functions at any nesting depth,
   qualified by their lexical path), and reference edges resolved by
   qualified-suffix matching.  The graph deliberately stays syntactic:

   - a reference to a node anywhere in a function body is an edge
     (passing a function along counts as calling it — sound for
     reachability);
   - an ambiguous reference gets edges to *every* candidate
     (over-approximation);
   - a reference that resolves to nothing intra-repo (parameters,
     record fields, stdlib, closures received as arguments)
     contributes no edge — this is the boundary the hot-path
     annotations exploit: a drain loop that receives its dispatch
     work as a closure parameter keeps the dispatched code out of
     the reachable set, mirroring E15's phase accounting.

   Only function-literal bindings become nodes: a top-level
   [let table = ...] runs once at module initialisation, so its body
   is not hot-path code even when the value is used there. *)

type node = {
  id : int;
  name : string;  (* dotted lexical path, e.g. "Fleet.churn.shard.on_tick" *)
  segs : string list;
  file : string;  (* rel path of the defining unit *)
  line : int;
  col : int;
  hot : bool;  (* carries [@@lint.hotpath] on its own binding *)
  local : bool;  (* defined inside another function *)
  attrs : attributes list;  (* innermost-first: own binding, then enclosing bindings *)
  body : expression;
  arity : int;  (* syntactic fun-spine parameter count *)
  mutable edges : int list;  (* callee node ids, sorted, deduped *)
}

type t = {
  nodes : node array;
  by_last : (string, int list) Hashtbl.t;  (* last name segment -> node ids *)
  opens_by_file : (string, string list list) Hashtbl.t;
  notes : (string * Location.t * string) list;  (* misused [@@lint.hotpath] *)
}

(* Pre-node collected in pass 1, before ids and edges exist. *)
type pre = {
  p_segs : string list;
  p_file : string;
  p_line : int;
  p_col : int;
  p_hot : bool;
  p_local : bool;
  p_attrs : attributes list;
  p_body : expression;
  p_arity : int;
  mutable p_refs : string list list;  (* identifier paths in the body *)
}

let module_name_of_rel rel =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename rel))

let rec binding_name p =
  match p.ppat_desc with
  | Ppat_var s -> Some s.Location.txt
  | Ppat_constraint (p', _) -> binding_name p'
  | _ -> None

(* Constraint/newtype wrappers are transparent for "is this binding a
   function": [let f : t -> u = fun x -> ...]. *)
let rec strip_wrappers e =
  match e.pexp_desc with
  | Pexp_constraint (e', _) -> strip_wrappers e'
  | Pexp_newtype (_, e') -> strip_wrappers e'
  | _ -> e

let hotpath_name = "lint.hotpath"
let is_hotpath (a : attribute) = String.equal a.attr_name.Location.txt hotpath_name

let hot_of_attrs attrs = List.exists is_hotpath attrs

(* ------------------------------------------------------------------ *)
(* Pass 1: node collection                                             *)

type collector = {
  mutable pres : pre list;  (* reversed *)
  mutable opens : string list list;  (* reversed, current file *)
  mutable notes : (string * Location.t * string) list;  (* reversed *)
  c_file : string;
}

let note_hotpath_misuse c ~loc msg = c.notes <- (c.c_file, loc, msg) :: c.notes

let check_hotpath_payload c (vb : value_binding) =
  List.iter
    (fun (a : attribute) ->
      if is_hotpath a then
        match a.attr_payload with
        | PStr [] -> ()
        | _ ->
          note_hotpath_misuse c ~loc:a.attr_name.Location.loc
            "[@@lint.hotpath] takes no payload")
    vb.pvb_attributes

let new_pre c ~segs ~local ~attr_chain (vb : value_binding) body =
  let loc = vb.pvb_pat.ppat_loc.Location.loc_start in
  {
    p_segs = segs;
    p_file = c.c_file;
    p_line = loc.Lexing.pos_lnum;
    p_col = loc.Lexing.pos_cnum - loc.Lexing.pos_bol;
    p_hot = hot_of_attrs vb.pvb_attributes;
    p_local = local;
    p_attrs = vb.pvb_attributes :: attr_chain;
    p_body = body;
    p_arity = Ast_util.fun_arity (strip_wrappers body);
    p_refs = [];
  }

(* Walks one function body: records identifier references on [owner],
   turns named local function bindings into their own nodes (and does
   *not* record their bodies' references on [owner]). *)
let rec harvest c ~owner e0 =
  let expr it e =
    match e.pexp_desc with
    | Pexp_ident lid -> owner.p_refs <- Ast_util.flatten_ident lid.Location.txt :: owner.p_refs
    | Pexp_let (_, vbs, cont) ->
      List.iter
        (fun vb ->
          check_hotpath_payload c vb;
          match binding_name vb.pvb_pat with
          | Some name when Ast_util.is_function_literal (strip_wrappers vb.pvb_expr) ->
            let pre =
              new_pre c ~segs:(owner.p_segs @ [ name ]) ~local:true ~attr_chain:owner.p_attrs
                vb vb.pvb_expr
            in
            c.pres <- pre :: c.pres;
            harvest c ~owner:pre vb.pvb_expr
          | _ ->
            if hot_of_attrs vb.pvb_attributes then
              note_hotpath_misuse c ~loc:vb.pvb_pat.ppat_loc
                "[@@lint.hotpath] on a non-function binding roots nothing";
            it.Ast_iterator.expr it vb.pvb_expr)
        vbs;
      it.Ast_iterator.expr it cont
    | _ -> Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.Ast_iterator.expr it e0

let rec collect_structure c prefix items = List.iter (collect_item c prefix) items

and collect_item c prefix item =
  match item.pstr_desc with
  | Pstr_value (_, vbs) ->
    List.iter
      (fun vb ->
        check_hotpath_payload c vb;
        match binding_name vb.pvb_pat with
        | Some name when Ast_util.is_function_literal (strip_wrappers vb.pvb_expr) ->
          let pre =
            new_pre c ~segs:(prefix @ [ name ]) ~local:false ~attr_chain:[] vb vb.pvb_expr
          in
          c.pres <- pre :: c.pres;
          harvest c ~owner:pre vb.pvb_expr
        | _ ->
          if hot_of_attrs vb.pvb_attributes then
            note_hotpath_misuse c ~loc:vb.pvb_pat.ppat_loc
              "[@@lint.hotpath] on a non-function binding roots nothing")
      vbs
  | Pstr_module mb -> collect_module c prefix mb
  | Pstr_recmodule mbs -> List.iter (collect_module c prefix) mbs
  | Pstr_open od -> (
    match od.popen_expr.pmod_desc with
    | Pmod_ident lid -> c.opens <- Ast_util.flatten_ident lid.Location.txt :: c.opens
    | _ -> ())
  | _ -> ()

and collect_module c prefix mb =
  match mb.pmb_name.Location.txt with
  | Some m -> collect_module_expr c (prefix @ [ m ]) mb.pmb_expr
  | None -> ()

and collect_module_expr c prefix me =
  match me.pmod_desc with
  | Pmod_structure items -> collect_structure c prefix items
  | Pmod_constraint (me', _) -> collect_module_expr c prefix me'
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Pass 2: resolution and edges                                        *)

let rec all_but_last = function [] | [ _ ] -> [] | x :: tl -> x :: all_but_last tl
let rec last_seg = function [] -> "" | [ x ] -> x | _ :: tl -> last_seg tl

(* [resolve t ~file path] — node ids a reference may denote:
   - unqualified: same-file nodes of that name, else top-level nodes
     whose module qualifier matches a top-level [open] of the file;
   - qualified: nodes whose qualifier is a suffix of the reference's
     qualifier or vice versa, so [Mediactl_sim.Pqueue.drain_due],
     [Pqueue.drain_due] and (from inside trace.ml) [Packed.append]
     all land on the right node.  Module *aliases* are not chased. *)
let resolve t ~file path =
  let last = last_seg path in
  let cands = match Hashtbl.find_opt t.by_last last with Some l -> l | None -> [] in
  let rq = all_but_last path in
  if rq = [] then begin
    let same = List.filter (fun i -> String.equal t.nodes.(i).file file) cands in
    if same <> [] then same
    else
      let opens =
        match Hashtbl.find_opt t.opens_by_file file with Some l -> l | None -> []
      in
      List.filter
        (fun i ->
          let n = t.nodes.(i) in
          (not n.local)
          && (let nq = all_but_last n.segs in
              List.exists (fun o -> Ast_util.has_suffix nq o) opens))
        cands
  end
  else
    List.filter
      (fun i ->
        let nq = all_but_last (t.nodes.(i)).segs in
        Ast_util.has_suffix nq rq || Ast_util.has_suffix rq nq)
      cands

let build units =
  let all_pres = ref [] and opens_by_file = Hashtbl.create 16 and notes = ref [] in
  List.iter
    (fun (rel, structure) ->
      let c = { pres = []; opens = []; notes = []; c_file = rel } in
      collect_structure c [ module_name_of_rel rel ] structure;
      all_pres := List.rev_append c.pres !all_pres;
      Hashtbl.replace opens_by_file rel (List.rev c.opens);
      notes := List.rev_append c.notes !notes)
    units;
  let pres = Array.of_list (List.rev !all_pres) in
  let nodes =
    Array.mapi
      (fun id p ->
        {
          id;
          name = String.concat "." p.p_segs;
          segs = p.p_segs;
          file = p.p_file;
          line = p.p_line;
          col = p.p_col;
          hot = p.p_hot;
          local = p.p_local;
          attrs = p.p_attrs;
          body = p.p_body;
          arity = p.p_arity;
          edges = [];
        })
      pres
  in
  let by_last = Hashtbl.create 64 in
  Array.iter
    (fun n ->
      let l = last_seg n.segs in
      let prev = match Hashtbl.find_opt by_last l with Some v -> v | None -> [] in
      Hashtbl.replace by_last l (prev @ [ n.id ]))
    nodes;
  let t = { nodes; by_last; opens_by_file; notes = List.rev !notes } in
  Array.iteri
    (fun id p ->
      let targets =
        List.concat_map (fun path -> resolve t ~file:p.p_file path) p.p_refs
      in
      nodes.(id).edges <- List.sort_uniq Int.compare targets)
    pres;
  t

let node t id = t.nodes.(id)
let size t = Array.length t.nodes
let notes (t : t) = t.notes

let roots t =
  Array.to_list t.nodes |> List.filter (fun n -> n.hot) |> List.map (fun n -> n.id)

(* BFS from the hot roots; the parent map lets ALLOC001 print the
   call chain that makes a finding hot. *)
let reach t =
  let parent : (int, int option) Hashtbl.t = Hashtbl.create 64 in
  let q = Queue.create () in
  List.iter
    (fun r ->
      if not (Hashtbl.mem parent r) then begin
        Hashtbl.add parent r None;
        Queue.add r q
      end)
    (roots t);
  while not (Queue.is_empty q) do
    let u = Queue.take q in
    List.iter
      (fun v ->
        if not (Hashtbl.mem parent v) then begin
          Hashtbl.add parent v (Some u);
          Queue.add v q
        end)
      t.nodes.(u).edges
  done;
  parent

let chain t parent id =
  let rec up id acc =
    let acc = t.nodes.(id).name :: acc in
    match Hashtbl.find_opt parent id with
    | Some (Some p) -> up p acc
    | Some None | None -> acc
  in
  up id []
