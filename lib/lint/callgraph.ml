(* A call graph over the repo's compilation units, built from parsetrees
   alone (no typechecker).  Each unit contributes its top-level value
   definitions (including those in nested modules) as nodes; every
   identifier a definition's body mentions is a call site.  Resolution is
   name-based and deliberately conservative:

   - an unqualified name resolves to this unit's own top-level definition
     of that name when one exists (local definitions shadow opens), and
     otherwise to [M.name] for every [open M] in the unit — so with
     [open Unix] a bare [select] is visible to a rule banning
     [Unix.select];
   - [module W = Wire] aliases are expanded before lookup;
   - opens and aliases count unit-wide wherever they appear ([let open M
     in], [M.(...)], [let module W = Wire in], nested modules) — coarser
     than real scoping;
   - a qualified [Lib.Module.name] also tries its suffixes, so the
     library-wrapped [Fbremote.Wire.foo] meets the unit [wire.ml];
   - functor applications ([F(X).g]) and anything else that cannot be
     named statically resolve to nothing: reachability never follows
     them.  The same goes for calls through function parameters and
     record fields of closures (the chunk-store pattern).  Analyses on
     top of this graph therefore under-approximate reachability — they
     may miss a path, never invent one — except that the per-expression
     syntactic rules independently catch banned heads wherever they
     appear.

   Reachability is a worklist BFS with a visited set, so mutually
   recursive definitions (cycles) terminate and report each offending
   site once. *)

type unit_ = {
  u_file : string;
  u_scope : string;
  u_module : string;  (* "Server" for any .../server.ml *)
  u_opens : string list;  (* opened units: [open Fbsoak.Soak] opens Soak *)
  u_aliases : (string * string list) list;  (* module W = Wire *)
  u_idents : string list list;  (* every identifier path in the unit *)
  u_wholes : string list list;  (* functor arguments, packs, includes *)
}

type site = { s_parts : string list; s_line : int }

type def = {
  d_unit : unit_;
  d_path : string;  (* "serve", or "Sub.helper" inside module Sub *)
  d_line : int;
  d_sites : site list;
}

type t = {
  all_defs : def list;
  (* (unit module name, def path) -> defs; collisions across same-named
     files are unioned, which only ever adds edges *)
  index : (string * string, def list) Hashtbl.t;
  (* (module, value) -> scopes of the units mentioning it, and module ->
     scopes of the units using it whole; both multi-bound *)
  named_refs : (string * string, string) Hashtbl.t;
  whole_refs : (string, string) Hashtbl.t;
}

let def_name d = d.d_unit.u_module ^ "." ^ d.d_path
let def_path d = d.d_path

let module_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

(* [Longident.flatten] raises on functor applications; map them to a
   component no module is ever named, so they resolve to nothing. *)
let rec flatten_safe : Longident.t -> string list = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (p, s) -> flatten_safe p @ [ s ]
  | Longident.Lapply (_, _) -> [ "(functor-application)" ]

(* ------------------------------------------------------------------ *)
(* Building one unit's defs                                            *)

(* One pass over the whole unit: its opens and module aliases (wherever
   they appear), every identifier it mentions, and every module it uses
   whole. *)
let scan file (structure : Parsetree.structure) =
  let idents = ref [] and opens = ref [] and aliases = ref [] in
  let wholes = ref [] in
  let push r txt = r := flatten_safe txt :: !r in
  let alias name txt = aliases := (name, flatten_safe txt) :: !aliases in
  let d = Ast_iterator.default_iterator in
  let it =
    {
      d with
      expr =
        (fun self e ->
          match e.pexp_desc with
          | Pexp_ident { txt; _ } -> push idents txt
          | Pexp_letmodule
              ( { txt = Some name; _ },
                { pmod_desc = Pmod_ident { txt; _ }; _ },
                body ) ->
              alias name txt;
              self.expr self body
          | _ -> d.expr self e);
      module_binding =
        (fun self mb ->
          match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
          | Some name, Pmod_ident { txt; _ } -> alias name txt
          | _ -> d.module_binding self mb);
      open_declaration =
        (fun self od ->
          match od.popen_expr.pmod_desc with
          | Pmod_ident { txt; _ } -> push opens txt
          | _ -> d.open_declaration self od);
      module_expr =
        (fun self me ->
          (match me.pmod_desc with
          | Pmod_ident { txt; _ } -> push wholes txt
          | _ -> ());
          d.module_expr self me);
    }
  in
  it.structure it structure;
  let last parts = List.nth_opt (List.rev parts) 0 in
  {
    u_file = file;
    u_scope = Finding.scope_of_file file;
    u_module = module_of_file file;
    u_opens = List.filter_map last !opens |> List.sort_uniq String.compare;
    u_aliases = !aliases;
    u_idents = !idents;
    u_wholes = !wholes;
  }

let sites_of_expression (e : Parsetree.expression) =
  let acc = ref [] in
  let expr_iter (self : Ast_iterator.iterator) (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } ->
        acc :=
          { s_parts = flatten_safe txt; s_line = e.pexp_loc.loc_start.pos_lnum }
          :: !acc
    | _ -> ());
    Ast_iterator.default_iterator.expr self e
  in
  let iterator = { Ast_iterator.default_iterator with expr = expr_iter } in
  iterator.expr iterator e;
  List.rev !acc

let rec pattern_vars (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> [ txt ]
  | Ppat_alias (inner, { txt; _ }) -> txt :: pattern_vars inner
  | Ppat_tuple ps -> List.concat_map pattern_vars ps
  | Ppat_constraint (inner, _) -> pattern_vars inner
  | _ -> []

let rec defs_of_structure u ~prefix (structure : Parsetree.structure) =
  List.concat_map
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, bindings) ->
          List.concat_map
            (fun (vb : Parsetree.value_binding) ->
              let sites = sites_of_expression vb.pvb_expr in
              let line = vb.pvb_loc.loc_start.pos_lnum in
              List.map
                (fun name ->
                  {
                    d_unit = u;
                    d_path = prefix ^ name;
                    d_line = line;
                    d_sites = sites;
                  })
                (pattern_vars vb.pvb_pat))
            bindings
      | Pstr_module mb -> defs_of_module u ~prefix mb
      | Pstr_recmodule mbs ->
          List.concat_map (defs_of_module u ~prefix) mbs
      | _ -> [])
    structure

and defs_of_module u ~prefix (mb : Parsetree.module_binding) =
  match mb.pmb_name.txt with
  | None -> []
  | Some name ->
      let rec strip (me : Parsetree.module_expr) =
        match me.pmod_desc with
        | Pmod_structure s ->
            defs_of_structure u ~prefix:(prefix ^ name ^ ".") s
        | Pmod_functor (_, body) | Pmod_constraint (body, _) -> strip body
        | _ -> []
      in
      strip mb.pmb_expr

let build_unit (file, structure) =
  let u = scan file structure in
  (u, defs_of_structure u ~prefix:"" structure)

(* ------------------------------------------------------------------ *)
(* References                                                          *)

(* Who mentions what, for the dead-export rule: every identifier anywhere
   in a unit — [let () = ...] and functor arguments included — resolved
   additively: local definitions do not shadow opens, and a module used
   whole (a functor argument, a packed first-class module, an [include])
   references every value it exports.  Each approximation adds
   references, so the rule may miss a dead export, never invent one. *)
let references u =
  (* every form a path may denote: itself and, boundedly so that alias
     cycles terminate, its head substituted through any alias of it *)
  let rec forms depth parts =
    match parts with
    | head :: rest when depth > 0 ->
        parts
        :: List.concat_map
             (fun (name, target) ->
               if String.equal name head then forms (depth - 1) (target @ rest)
               else [])
             u.u_aliases
    | _ -> [ parts ]
  in
  let named =
    List.concat_map
      (function
        | [ v ] -> List.concat_map (fun o -> forms 4 [ o; v ]) u.u_opens
        | parts -> forms 4 parts)
      u.u_idents
    |> List.filter_map (fun parts ->
           match List.rev parts with v :: m :: _ -> Some (m, v) | _ -> None)
  in
  let whole =
    List.concat_map (forms 4) u.u_wholes
    |> List.filter_map (fun parts -> List.nth_opt (List.rev parts) 0)
  in
  (List.sort_uniq compare named, List.sort_uniq String.compare whole)

let build units =
  let built = List.map build_unit units in
  let all_defs = List.concat_map snd built in
  let index = Hashtbl.create 256 in
  List.iter
    (fun d ->
      let key = (d.d_unit.u_module, d.d_path) in
      let prev =
        match Hashtbl.find_opt index key with Some ds -> ds | None -> []
      in
      Hashtbl.replace index key (d :: prev))
    all_defs;
  let named_refs = Hashtbl.create 4096 and whole_refs = Hashtbl.create 256 in
  List.iter
    (fun (u, _) ->
      let named, whole = references u in
      List.iter (fun key -> Hashtbl.add named_refs key u.u_scope) named;
      List.iter (fun m -> Hashtbl.add whole_refs m u.u_scope) whole)
    built;
  { all_defs; index; named_refs; whole_refs }

let referrers t ~module_ value =
  Hashtbl.find_all t.named_refs (module_, value)
  @ Hashtbl.find_all t.whole_refs module_
  |> List.sort_uniq String.compare

let defs_in t ~scope =
  List.filter (fun d -> String.equal d.d_unit.u_scope scope) t.all_defs

(* ------------------------------------------------------------------ *)
(* Resolution                                                          *)

let lookup t module_ path =
  match Hashtbl.find_opt t.index (module_, path) with
  | Some ds -> ds
  | None -> []

(* Expand one site into the name forms it may denote.  Returns the
   candidate part-lists (for predicate matching) and the defs any of them
   resolve to. *)
let expand t (u : unit_) parts =
  match parts with
  | [] -> ([], [])
  | [ v ] -> (
      (* local definition shadows opens *)
      match lookup t u.u_module v with
      | _ :: _ as local -> ([ [ v ] ], local)
      | [] ->
          let opened = List.map (fun o -> [ o; v ]) u.u_opens in
          let defs = List.concat_map (fun o -> lookup t o v) u.u_opens in
          (([ v ] :: opened), defs))
  | head :: rest ->
      let forms =
        match List.assoc_opt head u.u_aliases with
        | Some target -> [ target @ rest ]
        | None -> [ parts ]
      in
      (* every suffix that still has a module component: Fbremote.Wire.foo
         is tried as itself, then as Wire.foo *)
      let rec suffixes = function
        | [ _ ] | [] -> []
        | _ :: tail as l -> l :: suffixes tail
      in
      let forms = List.concat_map suffixes forms in
      let defs =
        List.concat_map
          (fun form ->
            match form with
            | m :: (_ :: _ as path) -> lookup t m (String.concat "." path)
            | _ -> [])
          forms
      in
      (* a same-unit nested reference Sub.foo lives under this unit's own
         module name *)
      let defs = defs @ lookup t u.u_module (String.concat "." parts) in
      (forms, defs)

(* ------------------------------------------------------------------ *)
(* Reachability                                                        *)

type hit = {
  h_parts : string list;  (* the offending head, as matched *)
  h_file : string;
  h_line : int;
  h_chain : string list;  (* root def, ..., def containing the site *)
}

let reach t ~roots ~approved ~target =
  let visited : (string * string, unit) Hashtbl.t = Hashtbl.create 64 in
  let hits = ref [] in
  let queue = Queue.create () in
  List.iter (fun d -> Queue.push (d, [ def_name d ]) queue) roots;
  while not (Queue.is_empty queue) do
    let d, chain = Queue.pop queue in
    let key = (d.d_unit.u_module, d.d_path) in
    if not (Hashtbl.mem visited key) then begin
      Hashtbl.replace visited key ();
      List.iter
        (fun site ->
          let forms, defs = expand t d.d_unit site.s_parts in
          if not (List.exists approved forms) then begin
            (match List.find_opt target forms with
            | Some form ->
                hits :=
                  {
                    h_parts = form;
                    h_file = d.d_unit.u_file;
                    h_line = site.s_line;
                    h_chain = chain;
                  }
                  :: !hits
            | None -> ());
            List.iter
              (fun callee ->
                if
                  not
                    (Hashtbl.mem visited
                       (callee.d_unit.u_module, callee.d_path))
                then Queue.push (callee, chain @ [ def_name callee ]) queue)
              defs
          end)
        d.d_sites
    end
  done;
  List.sort_uniq compare !hits
