module Value = Fbtypes.Value
module Prim = Fbtypes.Prim
module Fblob = Fbtypes.Fblob
module Flist = Fbtypes.Flist
module Fmap = Fbtypes.Fmap
module Fset = Fbtypes.Fset

type conflict = {
  location : string;
  base : string option;
  left : string option;
  right : string option;
}

let pp_conflict fmt c =
  let pp_opt fmt = function
    | None -> Format.pp_print_string fmt "∅"
    | Some s ->
        if String.length s > 32 then
          Format.fprintf fmt "%s… (%d bytes)" (String.sub s 0 32) (String.length s)
        else Format.pp_print_string fmt s
  in
  Format.fprintf fmt "@[conflict at %s: base=%a left=%a right=%a@]" c.location
    pp_opt c.base pp_opt c.left pp_opt c.right

type resolver =
  | Manual
  | Choose_left
  | Choose_right
  | Append
  | Aggregate
  | Custom of (conflict -> string option)

type result_ = Merged of Fbtypes.Value.t | Conflicts of conflict list

(* Elements of positional conflicts are joined with the ASCII unit
   separator so custom resolvers can round-trip lists of elements. *)
let elem_sep = '\x1f'
let join_elems = String.concat (String.make 1 elem_sep)
let split_elems s = if s = "" then [] else String.split_on_char elem_sep s

let resolve resolver conflict =
  match resolver with
  | Manual -> None
  | Choose_left -> Some (Option.value ~default:"" conflict.left)
  | Choose_right -> Some (Option.value ~default:"" conflict.right)
  | Append ->
      Some
        (Option.value ~default:"" conflict.left
        ^ Option.value ~default:"" conflict.right)
  | Aggregate -> (
      (* Numeric aggregation: base + Δleft + Δright. *)
      try
        let b = Int64.of_string (Option.value ~default:"0" conflict.base) in
        let l = Int64.of_string (Option.value ~default:"0" conflict.left) in
        let r = Int64.of_string (Option.value ~default:"0" conflict.right) in
        Some Int64.(to_string (add b (add (sub l b) (sub r b))))
      with Failure _ -> None)
  | Custom f -> f conflict

(* ------------------------------------------------------------------ *)
(* Map merge: key-wise three-way.                                      *)

module SMap = Map.Make (String)

let map_changes base side =
  List.fold_left
    (fun acc (k, change) -> SMap.add k change acc)
    SMap.empty (Fmap.diff base side)

(* A change is what a side did to a key relative to base. *)
let change_result = function
  | `Left _removed -> None
  | `Right added -> Some added
  | `Changed (_, now) -> Some now

let change_equal a b =
  match (a, b) with
  | `Left _, `Left _ -> true (* both removed *)
  | `Right x, `Right y | `Changed (_, x), `Changed (_, y) -> String.equal x y
  | _ -> false

let merge_maps ~resolver ~base ~left ~right =
  let dl = map_changes base left and dr = map_changes base right in
  let conflicts = ref [] in
  let updates = ref [] and removals = ref [] in
  let apply key change =
    match change_result change with
    | Some v -> updates := (key, v) :: !updates
    | None -> removals := key :: !removals
  in
  (* [handle] takes the left change as definite, so the both-sides-absent
     case is unrepresentable (it used to be an [assert false]). *)
  let handle key cl = function
    | None -> apply key cl
    | Some cr when change_equal cl cr -> apply key cl
    | Some cr -> (
        let conflict =
          {
            location = key;
            base = Fmap.find base key;
            left = change_result cl;
            right = change_result cr;
          }
        in
        match resolve resolver conflict with
        | Some v -> updates := (key, v) :: !updates
        | None -> conflicts := conflict :: !conflicts)
  in
  SMap.iter (fun k cl -> handle k cl (SMap.find_opt k dr)) dl;
  SMap.iter (fun k cr -> if not (SMap.mem k dl) then apply k cr) dr;
  if !conflicts <> [] then Conflicts (List.rev !conflicts)
  else begin
    let merged = Fmap.set_many base !updates in
    let merged = List.fold_left Fmap.remove merged !removals in
    Merged (Value.Map merged)
  end

(* ------------------------------------------------------------------ *)
(* Set merge: additions and removals always commute.                   *)

let merge_sets ~base ~left ~right =
  let dl = Fset.diff base left and dr = Fset.diff base right in
  let apply s = function `Left removed -> Fset.remove s removed | `Right added -> Fset.add s added in
  let merged = List.fold_left apply base dl in
  let merged = List.fold_left apply merged dr in
  Merged (Value.Set merged)

(* ------------------------------------------------------------------ *)
(* Positional merge (Blob / List): by chunk reference, else by region. *)

(* Generic over the positional container: [merge_by_ref], [region
   ~against:base], [slice], [splice].  Regions are in base coordinates. *)
type 'c positional = {
  p_merge_by_ref : base:'c -> 'c -> 'c -> 'c option;
  p_region : against:'c -> 'c -> ((int * int) * (int * int)) option;
  p_slice : 'c -> pos:int -> len:int -> string list;
  p_splice : 'c -> pos:int -> del:int -> ins:string list -> 'c;
}

(* The region merge: both sides' diffs against base, applied by splicing
   when disjoint, a conflict over their covering region otherwise. *)
let merge_regions (type c) (ops : c positional) ~resolver ~(base : c)
    ~(left : c) ~(right : c) ~wrap =
  match (ops.p_region ~against:base left, ops.p_region ~against:base right) with
  | None, None -> Merged (wrap base)
  | Some _, None -> Merged (wrap left)
  | None, Some _ -> Merged (wrap right)
  | Some ((bl, bl_len), (ll, ll_len)), Some ((br, br_len), (rr, rr_len)) ->
      if bl + bl_len <= br || br + br_len <= bl then begin
        (* Disjoint base regions: apply both, the later one first.  At one
           position an insertion precedes a replacement, and of two
           insertions the left one comes first. *)
        let apply_left c = ops.p_splice c ~pos:bl ~del:bl_len ~ins:(ops.p_slice left ~pos:ll ~len:ll_len) in
        let apply_right c = ops.p_splice c ~pos:br ~del:br_len ~ins:(ops.p_slice right ~pos:rr ~len:rr_len) in
        let merged =
          if bl > br || (bl = br && bl_len > br_len) then apply_right (apply_left base)
          else apply_left (apply_right base)
        in
        Merged (wrap merged)
      end
      else begin
        (* Overlapping: conflict over the covering base region. *)
        let s = min bl br and e = max (bl + bl_len) (br + br_len) in
        let left_slice =
          ops.p_slice left ~pos:s ~len:(e - s + (ll_len - bl_len))
        in
        let right_slice =
          ops.p_slice right ~pos:s ~len:(e - s + (rr_len - br_len))
        in
        let conflict =
          {
            location = Printf.sprintf "@pos:%d" s;
            base = Some (join_elems (ops.p_slice base ~pos:s ~len:(e - s)));
            left = Some (join_elems left_slice);
            right = Some (join_elems right_slice);
          }
        in
        match resolve resolver conflict with
        | Some bytes ->
            let ins = split_elems bytes in
            Merged (wrap (ops.p_splice base ~pos:s ~del:(e - s) ~ins))
        | None -> Conflicts [ conflict ]
      end

(* Disjoint leaf runs merge by chunk reference, with the region merge's
   result; everything else takes the region merge. *)
let merge_positional ops ~resolver ~base ~left ~right ~wrap =
  match ops.p_merge_by_ref ~base left right with
  | Some merged -> Merged (wrap merged)
  | None -> merge_regions ops ~resolver ~base ~left ~right ~wrap

let blob_ops =
  {
    p_merge_by_ref = Fblob.merge_by_ref;
    p_region = (fun ~against b -> Fblob.diff_region against b);
    p_slice =
      (fun b ~pos ~len ->
        (* one single-element list so blob bytes survive join/split *)
        [ Fblob.read b ~pos ~len ]);
    p_splice =
      (fun b ~pos ~del ~ins -> Fblob.splice b ~pos ~del ~ins:(String.concat "" ins));
    }

let list_ops =
  {
    p_merge_by_ref = Flist.merge_by_ref;
    p_region = (fun ~against l -> Flist.diff_region against l);
    p_slice = Flist.slice;
    p_splice = Flist.splice;
  }

(* ------------------------------------------------------------------ *)
(* Primitive merge.                                                    *)

let prim_to_string = function
  | Prim.Str s -> s
  | Prim.Int i -> Int64.to_string i
  | Prim.Tuple fields -> join_elems fields

let prim_of_resolution ~like bytes =
  match like with
  | Prim.Str _ -> Some (Prim.Str bytes)
  | Prim.Int _ -> ( try Some (Prim.Int (Int64.of_string bytes)) with Failure _ -> None)
  | Prim.Tuple _ -> Some (Prim.Tuple (split_elems bytes))

let merge_prims ~resolver ~base ~left ~right =
  let same = Prim.equal in
  let conflict () =
    {
      location = "@value";
      base = Option.map prim_to_string base;
      left = Some (prim_to_string left);
      right = Some (prim_to_string right);
    }
  in
  let resolved_or_conflict () =
    let c = conflict () in
    match resolve resolver c with
    | Some bytes -> (
        match prim_of_resolution ~like:left bytes with
        | Some p -> Merged (Value.Prim p)
        | None -> Conflicts [ c ])
    | None -> Conflicts [ c ]
  in
  match base with
  | Some b ->
      if same left right then Merged (Value.Prim left)
      else if same left b then Merged (Value.Prim right)
      else if same right b then Merged (Value.Prim left)
      else resolved_or_conflict ()
  | None ->
      if same left right then Merged (Value.Prim left)
      else resolved_or_conflict ()

(* ------------------------------------------------------------------ *)

let kind_conflict left right =
  Conflicts
    [
      {
        location = "@type";
        base = None;
        left = Some (Value.kind_to_string (Value.kind left));
        right = Some (Value.kind_to_string (Value.kind right));
      };
    ]

let whole_value_conflict ~resolver ~of_string =
  let c = { location = "@value"; base = None; left = None; right = None } in
  match resolve resolver c with
  | Some bytes -> Merged (of_string bytes)
  | None -> Conflicts [ c ]

let merge_values store cfg ~resolver ~base ~left ~right =
  match (base, left, right) with
  | _, left, right when Value.kind left <> Value.kind right ->
      kind_conflict left right
  | Some (Value.Map b), Value.Map l, Value.Map r ->
      merge_maps ~resolver ~base:b ~left:l ~right:r
  | None, Value.Map l, Value.Map r ->
      merge_maps ~resolver ~base:(Fmap.empty store cfg) ~left:l ~right:r
  | Some (Value.Set b), Value.Set l, Value.Set r ->
      merge_sets ~base:b ~left:l ~right:r
  | None, Value.Set l, Value.Set r ->
      merge_sets ~base:(Fset.empty store cfg) ~left:l ~right:r
  | Some (Value.Blob b), Value.Blob l, Value.Blob r ->
      merge_positional blob_ops ~resolver ~base:b ~left:l ~right:r ~wrap:(fun x ->
          Value.Blob x)
  | None, Value.Blob l, Value.Blob r ->
      if Fblob.equal l r then Merged (Value.Blob l)
      else
        whole_value_conflict ~resolver ~of_string:(fun s ->
            Value.Blob (Fblob.create store cfg s))
  | Some (Value.List b), Value.List l, Value.List r ->
      merge_positional list_ops ~resolver ~base:b ~left:l ~right:r ~wrap:(fun x ->
          Value.List x)
  | None, Value.List l, Value.List r ->
      if Flist.equal l r then Merged (Value.List l)
      else
        whole_value_conflict ~resolver ~of_string:(fun s ->
            Value.List (Flist.create store cfg (split_elems s)))
  | Some (Value.Prim b), Value.Prim l, Value.Prim r ->
      merge_prims ~resolver ~base:(Some b) ~left:l ~right:r
  | None, Value.Prim l, Value.Prim r ->
      merge_prims ~resolver ~base:None ~left:l ~right:r
  | _, left, right ->
      (* base kind differs from both sides' (equal) kind: merge without a
         common ancestor *)
      if Value.equal left right then Merged left
      else
        Conflicts
          [ { location = "@value"; base = None; left = None; right = None } ]
