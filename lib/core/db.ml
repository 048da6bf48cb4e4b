module Cid = Fbchunk.Cid
module Store = Fbchunk.Chunk_store
module Value = Fbtypes.Value

type error =
  | Unknown_key of string
  | Unknown_branch of string * string
  | Branch_exists of string * string
  | Unknown_version of Cid.t
  | Guard_failed of { expected : Cid.t; actual : Cid.t option }
  | Merge_conflicts of Merge.conflict list

let pp_error fmt = function
  | Unknown_key k -> Format.fprintf fmt "unknown key %S" k
  | Unknown_branch (k, b) -> Format.fprintf fmt "unknown branch %S of key %S" b k
  | Branch_exists (k, b) ->
      Format.fprintf fmt "branch %S of key %S already exists" b k
  | Unknown_version v -> Format.fprintf fmt "unknown version %a" Cid.pp v
  | Guard_failed { expected; actual } ->
      Format.fprintf fmt "guard failed: expected %a, head is %a" Cid.pp expected
        (Format.pp_print_option Cid.pp)
        actual
  | Merge_conflicts cs ->
      Format.fprintf fmt "merge produced %d conflict(s):@ %a" (List.length cs)
        (Format.pp_print_list Merge.pp_conflict)
        cs

let error_to_string e = Format.asprintf "%a" pp_error e

(* Branch-table mutations, reported to [on_mutation] so a persistence layer
   (lib/persist) can journal them. One callback invocation = one logical
   operation: the listed mutations must be made durable atomically. *)
type mutation =
  | Set_head of { key : string; branch : string; uid : Cid.t }
  | Record_object of { key : string; uid : Cid.t; bases : Cid.t list }
  | Rename of { key : string; old_name : string; new_name : string }
  | Remove_branch of { key : string; branch : string }
  | Replace_untagged of { key : string; drop : Cid.t list; add : Cid.t }

type t = {
  store : Store.t;
  cfg : Fbtree.Tree_config.t;
  branches : (string, Branch_table.t) Hashtbl.t;
  mutable on_mutation : mutation list -> unit;
}

let create ?(cfg = Fbtree.Tree_config.default) store =
  { store; cfg; branches = Hashtbl.create 64; on_mutation = (fun _ -> ()) }

let set_on_mutation t f = t.on_mutation <- f
let notify t muts = if muts <> [] then t.on_mutation muts

let store t = t.store
let cfg t = t.cfg
let default_branch = "master"

let str s = Value.Prim (Fbtypes.Prim.Str s)
let int i = Value.Prim (Fbtypes.Prim.Int i)
let tuple fields = Value.Prim (Fbtypes.Prim.Tuple fields)
let blob t s = Value.Blob (Fbtypes.Fblob.create t.store t.cfg s)
let list t elems = Value.List (Fbtypes.Flist.create t.store t.cfg elems)
let map t kvs = Value.Map (Fbtypes.Fmap.create t.store t.cfg kvs)
let set t members = Value.Set (Fbtypes.Fset.create t.store t.cfg members)

let table t key =
  match Hashtbl.find_opt t.branches key with
  | Some tbl -> tbl
  | None ->
      let tbl = Branch_table.create () in
      Hashtbl.replace t.branches key tbl;
      tbl

let table_opt t key = Hashtbl.find_opt t.branches key

(* Re-apply a journaled mutation during recovery. Does NOT fire
   [on_mutation]: replay must not re-journal. *)
let apply_mutation t = function
  | Set_head { key; branch; uid } ->
      Branch_table.set_head (table t key) branch uid
  | Record_object { key; uid; bases } ->
      Branch_table.record_object (table t key) ~uid ~bases
  | Rename { key; old_name; new_name } ->
      ignore (Branch_table.rename (table t key) ~old_name ~new_name)
  | Remove_branch { key; branch } ->
      ignore (Branch_table.remove (table t key) branch)
  | Replace_untagged { key; drop; add } ->
      Branch_table.replace_untagged (table t key) ~drop ~add

(* Whole-table image, for journal checkpoints. *)
let export_tables t =
  Hashtbl.fold (fun k tbl acc -> (k, Branch_table.snapshot tbl) :: acc)
    t.branches []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let import_tables t snaps =
  Hashtbl.reset t.branches;
  List.iter
    (fun (k, s) -> Hashtbl.replace t.branches k (Branch_table.of_snapshot s))
    snaps

(* Create and persist a new FObject, updating the UB-table (§4.5.1).
   Returns the uid and the table mutation for the caller to report. *)
let commit_object t ~key ~context ~base_objs value =
  let obj = Fobject.of_value ~key ~context ~bases:base_objs value in
  let uid = Fobject.store t.store obj in
  let bases = obj.Fobject.bases in
  Branch_table.record_object (table t key) ~uid ~bases;
  (uid, Record_object { key; uid; bases })

let load_object t uid =
  match Fobject.load t.store uid with
  | Some o -> Ok o
  | None -> Error (Unknown_version uid)

let put ?(branch = default_branch) ?(context = "") t ~key value =
  let tbl = table t key in
  let bases =
    match Branch_table.head tbl branch with
    | None -> []
    | Some head -> (
        match Fobject.load t.store head with Some o -> [ o ] | None -> [])
  in
  let uid, recorded = commit_object t ~key ~context ~base_objs:bases value in
  Branch_table.set_head tbl branch uid;
  notify t [ recorded; Set_head { key; branch; uid } ];
  uid

let put_guarded ?(branch = default_branch) ?(context = "") t ~key ~guard value =
  let tbl = table t key in
  match Branch_table.head tbl branch with
  | Some head when Cid.equal head guard ->
      Ok (put ~branch ~context t ~key value)
  | actual -> Error (Guard_failed { expected = guard; actual })

let put_at ?(context = "") t ~key ~base value =
  match load_object t base with
  | Error _ as e -> e
  | Ok base_obj ->
      if base_obj.Fobject.key <> key then Error (Unknown_version base)
      else begin
        let uid, recorded =
          commit_object t ~key ~context ~base_objs:[ base_obj ] value
        in
        notify t [ recorded ];
        Ok uid
      end

let head ?(branch = default_branch) t ~key =
  match table_opt t key with
  | None -> Error (Unknown_key key)
  | Some tbl -> (
      match Branch_table.head tbl branch with
      | Some uid -> Ok uid
      | None -> Error (Unknown_branch (key, branch)))

let get_object t uid =
  match load_object t uid with Ok o -> Ok o | Error _ as e -> e

let get_version t uid =
  match load_object t uid with
  | Error _ as e -> e
  | Ok obj -> Ok (Fobject.value t.store t.cfg obj)

let get ?(branch = default_branch) t ~key =
  match head ~branch t ~key with
  | Error _ as e -> e
  | Ok uid -> get_version t uid

let list_keys t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.branches []
  |> List.sort String.compare

let list_tagged_branches t ~key =
  match table_opt t key with None -> [] | Some tbl -> Branch_table.tags tbl

let list_untagged_branches t ~key =
  match table_opt t key with
  | None -> []
  | Some tbl -> Branch_table.untagged_heads tbl

let fork_at t ~key ~version ~new_branch =
  match table_opt t key with
  | None -> Error (Unknown_key key)
  | Some tbl -> (
      if Branch_table.head tbl new_branch <> None then
        Error (Branch_exists (key, new_branch))
      else
        match load_object t version with
        | Error _ as e -> e
        | Ok _ ->
            Branch_table.set_head tbl new_branch version;
            notify t [ Set_head { key; branch = new_branch; uid = version } ];
            Ok ())

let fork t ~key ~from_branch ~new_branch =
  match head ~branch:from_branch t ~key with
  | Error _ as e -> e
  | Ok version -> fork_at t ~key ~version ~new_branch

let rename_branch t ~key ~target ~new_name =
  match table_opt t key with
  | None -> Error (Unknown_key key)
  | Some tbl ->
      if Branch_table.rename tbl ~old_name:target ~new_name then begin
        notify t [ Rename { key; old_name = target; new_name } ];
        Ok ()
      end
      else if Branch_table.head tbl target = None then
        Error (Unknown_branch (key, target))
      else Error (Branch_exists (key, new_name))

let remove_branch t ~key ~target =
  match table_opt t key with
  | None -> Error (Unknown_key key)
  | Some tbl ->
      if Branch_table.remove tbl target then begin
        notify t [ Remove_branch { key; branch = target } ];
        Ok ()
      end
      else Error (Unknown_branch (key, target))

let restore_branch t ~key ~branch version =
  match load_object t version with
  | Error _ as e -> e
  | Ok obj ->
      if obj.Fobject.key <> key then Error (Unknown_version version)
      else begin
        let tbl = table t key in
        Branch_table.set_head tbl branch version;
        Branch_table.record_object tbl ~uid:version ~bases:obj.Fobject.bases;
        notify t
          [
            Set_head { key; branch; uid = version };
            Record_object { key; uid = version; bases = obj.Fobject.bases };
          ];
        Ok ()
      end

(* Three-way merge of two versions; returns the merged value. *)
let merge_versions t ~resolver uid1 uid2 =
  match (load_object t uid1, load_object t uid2) with
  | Error e, _ | _, Error e -> Error e
  | Ok o1, Ok o2 -> (
      let base =
        match History.lca t.store uid1 uid2 with
        | None -> None
        | Some b -> (
            match Fobject.load t.store b with
            | None -> None
            | Some bo -> Some (Fobject.value t.store t.cfg bo))
      in
      let left = Fobject.value t.store t.cfg o1 in
      let right = Fobject.value t.store t.cfg o2 in
      match Merge.merge_values t.store t.cfg ~resolver ~base ~left ~right with
      | Merge.Merged v -> Ok (v, [ o1; o2 ])
      | Merge.Conflicts cs -> Error (Merge_conflicts cs))

let merge ?(resolver = Merge.Manual) ?(context = "") t ~key ~target ~ref_ =
  match head ~branch:target t ~key with
  | Error _ as e -> e
  | Ok tgt_uid -> (
      let ref_uid =
        match ref_ with
        | `Version v -> Ok v
        | `Branch b -> head ~branch:b t ~key
      in
      match ref_uid with
      | Error _ as e -> e
      | Ok ref_uid -> (
          match merge_versions t ~resolver tgt_uid ref_uid with
          | Error _ as e -> e
          | Ok (value, base_objs) ->
              let uid, recorded = commit_object t ~key ~context ~base_objs value in
              Branch_table.set_head (table t key) target uid;
              notify t [ recorded; Set_head { key; branch = target; uid } ];
              Ok uid))

let merge_untagged ?(resolver = Merge.Manual) ?(context = "") t ~key heads =
  match heads with
  | [] -> Error (Unknown_key key)
  | [ single ] -> Ok single
  | first :: rest ->
      (* Store the intermediate merge objects (orphan chunks if we bail)
         but touch no branch table until the whole chain succeeds: a
         conflict halfway through must leave the table exactly as it was,
         or the in-memory state diverges from what was journaled. *)
      let rec fold acc pending = function
        | [] -> Ok (acc, List.rev pending)
        | uid :: rest -> (
            match merge_versions t ~resolver acc uid with
            | Error _ as e -> e
            | Ok (value, base_objs) ->
                let obj = Fobject.of_value ~key ~context ~bases:base_objs value in
                let merged = Fobject.store t.store obj in
                fold merged ((merged, obj.Fobject.bases) :: pending) rest)
      in
      (match fold first [] rest with
      | Error _ as e -> e
      | Ok (merged, pending) ->
          let muts =
            List.map
              (fun (uid, bases) ->
                Branch_table.record_object (table t key) ~uid ~bases;
                Record_object { key; uid; bases })
              pending
          in
          Branch_table.replace_untagged (table t key) ~drop:heads ~add:merged;
          notify t (muts @ [ Replace_untagged { key; drop = heads; add = merged } ]);
          Ok merged)

let track ?(branch = default_branch) t ~key ~dist_range =
  match head ~branch t ~key with
  | Error _ as e -> e
  | Ok uid -> Ok (History.track t.store ~head:uid ~dist_range)

let lca t uid1 uid2 =
  match History.lca t.store uid1 uid2 with
  | Some uid -> Ok uid
  | None -> Error (Unknown_version uid2)

let diff t uid1 uid2 =
  match (get_version t uid1, get_version t uid2) with
  | Error e, _ | _, Error e -> Error e
  | Ok v1, Ok v2 -> Ok (Diff.diff_values v1 v2)

let verify_version t uid =
  match t.store.Store.get uid with
  | None -> false
  | Some chunk -> (
      Cid.equal (Fbchunk.Chunk.cid chunk) uid
      &&
      match Fobject.of_chunk chunk with
      | exception Fbutil.Codec.Corrupt _ -> false
      | obj -> (
          (* Any failure to materialize the value — decode errors, missing
             chunks, bad shapes — means verification fails; the catch-all
             is the point here. *)
          match Fobject.value t.store t.cfg obj with
          | exception _ -> false (* lint: allow no-swallow *)
          | Value.Prim _ -> true
          | Value.Blob b -> Fbtypes.Fblob.verify b
          | Value.List l -> Fbtypes.Flist.verify l
          | Value.Map m -> Fbtypes.Fmap.verify m
          | Value.Set s -> Fbtypes.Fset.verify s))

let history_contains t ~head target = History.contains t.store ~head target
