open Parsetree

(* MARS001 — Marshal containment.

   [Marshal] keys are injective but not canonical: physical sharing
   leaks into the bytes, which split structurally-equal states and
   inflated the seed checker's state counts 1.71x (measured by E10).
   The packed codec ([Path_model.pack]/[unpack]) is the canonical
   encoding, and no file is exempt: any use — in lib, bin, bench, test
   or examples — is a finding, waivable only by an [@lint.allow]
   attribute at the use site. *)

let check ctx structure =
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident l ->
            let path = Ast_util.flatten_ident l.txt in
            let modules = match List.rev path with _ :: rev_mods -> rev_mods | [] -> [] in
            if List.mem "Marshal" modules then
              Ctx.flag ctx Finding.Marshal
                ~attrs:[ e.pexp_attributes ]
                e.pexp_loc
                (Printf.sprintf
                   "%s: Marshal is sharing-sensitive and non-canonical (inflated state counts \
                    1.71x, E10); use the packed codec (Path_model.pack/unpack) or waive with \
                    [@lint.allow \"marshal: <why>\"]"
                   (String.concat "." path))
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  iter.Ast_iterator.structure iter structure
