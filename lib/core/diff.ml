module Value = Fbtypes.Value

type t =
  | Prim_diff of { left : Fbtypes.Prim.t; right : Fbtypes.Prim.t; equal : bool }
  | Blob_diff of {
      left_region : int * int;
      right_region : int * int;
      equal : bool;
    }
  | List_diff of {
      left_region : int * int;
      right_region : int * int;
      equal : bool;
    }
  | Map_diff of
      (string * [ `Left of string | `Right of string | `Changed of string * string ])
      list
  | Set_diff of [ `Left of string | `Right of string ] list

exception Type_mismatch of string * string

let diff_values left right =
  match (left, right) with
  | Value.Prim l, Value.Prim r ->
      Prim_diff { left = l; right = r; equal = Fbtypes.Prim.equal l r }
  | Value.Blob l, Value.Blob r -> (
      match Fbtypes.Fblob.diff_region l r with
      | None -> Blob_diff { left_region = (0, 0); right_region = (0, 0); equal = true }
      | Some (lr, rr) -> Blob_diff { left_region = lr; right_region = rr; equal = false })
  | Value.List l, Value.List r -> (
      match Fbtypes.Flist.diff_region l r with
      | None -> List_diff { left_region = (0, 0); right_region = (0, 0); equal = true }
      | Some (lr, rr) -> List_diff { left_region = lr; right_region = rr; equal = false })
  | Value.Map l, Value.Map r -> Map_diff (Fbtypes.Fmap.diff l r)
  | Value.Set l, Value.Set r -> Set_diff (Fbtypes.Fset.diff l r)
  | l, r ->
      raise
        (Type_mismatch
           (Value.kind_to_string (Value.kind l), Value.kind_to_string (Value.kind r)))

let summary = function
  | Prim_diff { equal = true; _ } -> "primitive values are equal"
  | Prim_diff _ -> "primitive values differ"
  | Blob_diff { equal = true; _ } -> "blobs are equal"
  | Blob_diff { left_region = _, l1; right_region = _, l2; _ } ->
      Printf.sprintf "blob regions of %d/%d bytes differ" l1 l2
  | List_diff { equal = true; _ } -> "lists are equal"
  | List_diff { left_region = _, l1; right_region = _, l2; _ } ->
      Printf.sprintf "list regions of %d/%d elements differ" l1 l2
  | Map_diff [] -> "maps are equal"
  | Map_diff changes -> Printf.sprintf "%d keys differ" (List.length changes)
  | Set_diff [] -> "sets are equal"
  | Set_diff changes -> Printf.sprintf "%d members differ" (List.length changes)
