module Db = Forkbase.Db
module Cid = Fbchunk.Cid
module Value = Fbtypes.Value
module Fmap = Fbtypes.Fmap
module Flist = Fbtypes.Flist
module Dataset = Workload.Dataset

type t = {
  store : Fbchunk.Chunk_store.t;
  cfg : Fbtree.Tree_config.t;
  columns : (string * Flist.t) list; (* in Dataset.columns order *)
}

let column_values records col =
  let field r =
    match col with
    | "pk" -> r.Dataset.pk
    | "qty" -> string_of_int r.Dataset.qty
    | "price" -> string_of_int r.Dataset.price
    | "name" -> r.Dataset.name
    | "address" -> r.Dataset.address
    | "comment" -> r.Dataset.comment
    | c -> invalid_arg ("Table_col: unknown column " ^ c)
  in
  List.map field (Array.to_list records)

let to_value db t =
  let kvs =
    List.map (fun (name, l) -> (name, Cid.to_raw (Flist.root l))) t.columns
  in
  Db.map db kvs

let import db ~name records =
  let store = Db.store db and cfg = Db.cfg db in
  let columns =
    List.map
      (fun col -> (col, Flist.create store cfg (column_values records col)))
      Dataset.columns
  in
  Db.put db ~key:name (to_value db { store; cfg; columns })

let of_value db = function
  | Ok (Value.Map m) ->
      let store = Db.store db and cfg = Db.cfg db in
      let columns =
        List.filter_map
          (fun col ->
            Option.map
              (fun raw -> (col, Flist.of_root store cfg (Cid.of_raw raw)))
              (Fmap.find m col))
          Dataset.columns
      in
      if List.length columns = List.length Dataset.columns then
        Some { store; cfg; columns }
      else None
  | _ -> None

let load db ~name = of_value db (Db.get db ~key:name)

let update_at db ~name updates =
  match load db ~name with
  | None -> invalid_arg ("Table_col.update_at: no table " ^ name)
  | Some t ->
      let updates = List.sort (fun (i, _) (j, _) -> compare i j) updates in
      let columns =
        List.map
          (fun (col, l) ->
            let vals =
              List.map
                (fun (i, r) ->
                  match column_values [| r |] col with
                  | [ v ] -> (i, 1, [ v ])
                  | _ ->
                      invalid_arg
                        ("Table_col.update_at: row is missing column " ^ col))
                updates
            in
            (col, Flist.splice_many l vals))
          t.columns
      in
      Db.put db ~key:name (to_value db { t with columns })

let get_col t name = List.assoc name t.columns
let column t name = List.assoc_opt name t.columns

let record_at t i =
  Dataset.of_fields (List.map (fun (_, l) -> Flist.get l i) t.columns)

let length t = Flist.length (get_col t "pk")

let sum_qty t =
  Flist.fold (fun acc v -> acc + int_of_string v) 0 (get_col t "qty")
