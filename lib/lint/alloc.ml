open Parsetree

(* ALLOC001: syntactic allocation sites inside functions reachable
   from a [@@lint.hotpath] root (DESIGN section 16).  The dynamic
   budget this enforces is E15's: PR 7 took the fleet from 614.8 to
   334.5 minor words/event, and this rule is the static guard that a
   later PR cannot quietly re-introduce a closure or tuple on those
   surfaces.  Being syntactic it cannot see flambda's rescues —
   un-escaped closures, unboxed floats — so every finding is either
   fixed or waived with [@lint.allow "alloc: <measured why>"], the
   justification cross-referencing E15's phase split.  The same walk
   flags the polymorphic-compare [List] key lookups, which allocate
   nothing but cost a [caml_compare] per probe. *)

(* Stdlib entry points that allocate on every call.  The option-
   returning probes ([find_opt], [nth_opt]) are here deliberately:
   one [Some] per hit is exactly the allocation [Trace.str_id] avoids
   with [Hashtbl.find] + [Not_found]. *)
let allocating_calls =
  [
    [ "Array"; "make" ]; [ "Array"; "init" ]; [ "Array"; "copy" ]; [ "Array"; "append" ];
    [ "Array"; "sub" ]; [ "Array"; "of_list" ]; [ "Array"; "to_list" ]; [ "Array"; "concat" ];
    [ "Array"; "make_matrix" ]; [ "Bytes"; "create" ]; [ "Bytes"; "make" ]; [ "Bytes"; "sub" ];
    [ "Bytes"; "copy" ]; [ "Bytes"; "of_string" ]; [ "Bytes"; "to_string" ];
    [ "Bytes"; "sub_string" ]; [ "Bytes"; "cat" ]; [ "Buffer"; "create" ];
    [ "Buffer"; "contents" ]; [ "Hashtbl"; "create" ]; [ "Hashtbl"; "copy" ];
    [ "Hashtbl"; "find_opt" ]; [ "Hashtbl"; "find_all" ]; [ "Hashtbl"; "to_seq" ];
    [ "List"; "init" ]; [ "List"; "map" ]; [ "List"; "mapi" ]; [ "List"; "rev" ];
    [ "List"; "rev_append" ]; [ "List"; "append" ]; [ "List"; "concat" ];
    [ "List"; "concat_map" ]; [ "List"; "filter" ]; [ "List"; "filter_map" ];
    [ "List"; "sort" ]; [ "List"; "sort_uniq" ]; [ "List"; "stable_sort" ];
    [ "List"; "fast_sort" ]; [ "List"; "split" ]; [ "List"; "combine" ];
    [ "List"; "partition" ]; [ "List"; "of_seq" ]; [ "List"; "to_seq" ];
    [ "List"; "nth_opt" ]; [ "List"; "find_opt" ]; [ "List"; "find_map" ];
    [ "List"; "assoc_opt" ]; [ "String"; "make" ]; [ "String"; "init" ]; [ "String"; "sub" ];
    [ "String"; "concat" ]; [ "String"; "cat" ]; [ "String"; "map" ];
    [ "String"; "split_on_char" ]; [ "String"; "index_opt" ]; [ "String"; "trim" ];
    [ "String"; "uppercase_ascii" ]; [ "String"; "lowercase_ascii" ];
    [ "String"; "to_bytes" ]; [ "String"; "of_bytes" ]; [ "Printf"; "sprintf" ];
    [ "Format"; "asprintf" ]; [ "Format"; "sprintf" ]; [ "Option"; "map" ];
    [ "Option"; "bind" ]; [ "Option"; "some" ]; [ "Queue"; "create" ]; [ "Stack"; "create" ];
    [ "Gc"; "stat" ]; [ "Gc"; "quick_stat" ]; [ "Unix"; "gettimeofday" ];
    [ "string_of_int" ]; [ "string_of_float" ];
  ]

(* Applications whose whole purpose is to throw: allocating the
   exception message on the raise path is fine, so the subtree under a
   raising call is not walked at all. *)
let raising = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

let is_raising path =
  match path with
  | [ f ] | [ "Stdlib"; f ] -> List.mem f raising
  | _ -> false

(* Unqualified or [Stdlib]-qualified compare/min/max are polymorphic
   and box float arguments; [Int.min]/[Float.compare] are monomorphic
   and exempt. *)
let is_poly_compare path =
  match path with
  | [ f ] | [ "Stdlib"; f ] -> List.mem f [ "compare"; "min"; "max" ]
  | _ -> false

(* The [List] lookups that find a key with polymorphic equality: each
   probe is a [caml_compare] call, on strings or records as often as
   not.  A hot path looks keys up with [String.equal] or a monomorphic
   key equality instead. *)
let poly_lookups = [ "assoc"; "assoc_opt"; "mem_assoc"; "remove_assoc"; "mem" ]

let is_poly_lookup path =
  List.exists (fun f -> Ast_util.has_suffix [ "List"; f ] path) poly_lookups

let is_ref path = match path with [ "ref" ] | [ "Stdlib"; "ref" ] -> true | _ -> false

let dotted = String.concat "."

let check ctx ~graph ~reach =
  let file = ctx.Ctx.file in
  (* Misused [@@lint.hotpath] annotations surface as LINT001. *)
  List.iter
    (fun (f, loc, msg) -> if String.equal f file then Ctx.flag ctx Finding.Bad_allow loc msg)
    (Callgraph.notes graph);
  let check_node (n : Callgraph.node) =
    let via = String.concat " <- " (List.rev (Callgraph.chain graph reach n.Callgraph.id)) in
    (* Innermost-first stack of waiver scopes: expression attributes,
       local binding attributes, then the node's own lexical chain. *)
    let stack = ref n.Callgraph.attrs in
    let flag ?(attrs = []) loc site =
      Ctx.flag ctx Finding.Alloc
        ~attrs:(attrs @ !stack)
        loc
        (Printf.sprintf
           "%s on the hot path (%s); fix it or waive with [@lint.allow \"alloc: ...\"]" site via)
    in
    let with_pushed attrs f =
      if attrs = [] then f ()
      else begin
        stack := attrs :: !stack;
        f ();
        stack := List.tl !stack
      end
    in
    (* Mutually recursive walkers.  [walk] flags sites and descends;
       [walk_spine] crosses a function literal's parameter spine
       without flagging the spine itself, handing each body expression
       back to [walk] — so a multi-parameter anonymous [fun a b -> e],
       which 5.1 parses as nested literals and 5.2 as one, is counted
       as exactly one closure either way. *)
    let rec spine_iter () =
      {
        Ast_iterator.default_iterator with
        expr = (fun _ e -> walk_spine e);
        pat = (fun _ _ -> ());
        case =
          (fun _ c ->
            (match c.pc_guard with Some g -> walk g | None -> ());
            walk c.pc_rhs);
      }
    and walk_spine e =
      if Ast_util.is_function_literal e then begin
        let it = spine_iter () in
        Ast_iterator.default_iterator.expr it e
      end
      else walk e
    and walk e0 =
      let it = { Ast_iterator.default_iterator with expr = hook } in
      hook it e0
    and hook it e =
      with_pushed e.pexp_attributes (fun () ->
          if Ast_util.is_function_literal e then begin
            flag e.pexp_loc "closure allocation (function literal)";
            walk_spine e
          end
          else
            match e.pexp_desc with
            | Pexp_let (_, vbs, cont) ->
              List.iter
                (fun vb ->
                  match Callgraph.binding_name vb.pvb_pat with
                  | Some name
                    when Ast_util.is_function_literal (Callgraph.strip_wrappers vb.pvb_expr) ->
                    (* The local function is its own callgraph node;
                       its *definition* is a closure allocated on each
                       call of the enclosing function. *)
                    flag ~attrs:[ vb.pvb_attributes ] vb.pvb_loc
                      (Printf.sprintf "local function %s allocates a closure per call" name)
                  | _ -> with_pushed vb.pvb_attributes (fun () -> walk vb.pvb_expr))
                vbs;
              walk cont
            | Pexp_apply (f, args) -> (
              match Ast_util.ident_path f with
              | Some path when is_raising path -> ()
              | Some path ->
                (match Callgraph.resolve graph ~file path with
                | [] ->
                  if is_ref path then flag e.pexp_loc "ref cell allocation"
                  else if Ast_util.has_suffix [ "^" ] path then
                    flag e.pexp_loc "string concatenation (^) allocates"
                  else if Ast_util.has_suffix [ "@" ] path then
                    flag e.pexp_loc "list append (@) allocates"
                  else if is_poly_compare path then
                    flag e.pexp_loc
                      (Printf.sprintf "polymorphic %s boxes float arguments" (dotted path))
                  else if is_poly_lookup path then
                    flag e.pexp_loc
                      (Printf.sprintf "%s compares keys with polymorphic compare" (dotted path))
                  else (
                    match
                      List.find_opt (fun s -> Ast_util.has_suffix s path) allocating_calls
                    with
                    | Some s -> flag e.pexp_loc (Printf.sprintf "allocating call %s" (dotted s))
                    | None -> ())
                | cands ->
                  let k = List.length args in
                  let arities =
                    List.map (fun i -> (Callgraph.node graph i).Callgraph.arity) cands
                  in
                  if List.for_all (fun a -> a > k) arities then
                    flag e.pexp_loc
                      (Printf.sprintf
                         "partial application of %s (arity %d, %d argument%s) allocates a \
                          closure"
                         (dotted path) (List.hd arities) k
                         (if k = 1 then "" else "s")));
                List.iter (fun (_, a) -> walk a) args
              | None -> Ast_iterator.default_iterator.expr it e)
            | Pexp_tuple _ ->
              flag e.pexp_loc "tuple allocation";
              Ast_iterator.default_iterator.expr it e
            | Pexp_record _ ->
              flag e.pexp_loc "record allocation";
              Ast_iterator.default_iterator.expr it e
            | Pexp_construct (lid, Some arg) ->
              let name = Callgraph.last_seg (Ast_util.flatten_ident lid.Location.txt) in
              flag e.pexp_loc
                (if String.equal name "::" then "list cons allocation"
                 else Printf.sprintf "constructor allocation (%s)" name);
              (* A multi-argument constructor's [Pexp_tuple] payload is
                 the fields of the block just flagged — [a :: b] is one
                 two-word cell, not a cell plus a tuple — so descend
                 into the elements without re-flagging the tuple node.
                 (The untyped view cannot tell [Cons (a, b)] from
                 [Some (a, b)]; we under-count the latter by one rather
                 than double-count every cons.) *)
              (match arg.pexp_desc with
               | Pexp_tuple elts ->
                 with_pushed arg.pexp_attributes (fun () -> List.iter walk elts)
               | _ -> walk arg)
            | Pexp_variant (_, Some _) ->
              flag e.pexp_loc "polymorphic-variant allocation";
              Ast_iterator.default_iterator.expr it e
            | Pexp_array _ ->
              flag e.pexp_loc "array literal allocation";
              Ast_iterator.default_iterator.expr it e
            | Pexp_lazy _ ->
              flag e.pexp_loc "lazy block allocation";
              Ast_iterator.default_iterator.expr it e
            | _ -> Ast_iterator.default_iterator.expr it e)
    in
    walk_spine n.Callgraph.body
  in
  for id = 0 to Callgraph.size graph - 1 do
    let n = Callgraph.node graph id in
    if String.equal n.Callgraph.file file && Hashtbl.mem reach id then check_node n
  done
