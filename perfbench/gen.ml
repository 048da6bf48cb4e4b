(* Seeded operation streams.  Each generator keeps its own copy of what
   every key's branches should hold, so every read can be checked and a
   recovered store can be compared against every acknowledged write.  The
   model is advanced when an operation is generated: in a closed loop the
   operation is issued before the next one is drawn, and a failed one is
   counted as failed anyway. *)

module Wire = Fbremote.Wire
module Splitmix = Fbutil.Splitmix

type kind = Put | Get | Fork | Merge

let kinds = [ Put; Get; Fork; Merge ]
let kind_name = function Put -> "put" | Get -> "get" | Fork -> "fork" | Merge -> "merge"
let kind_index = function Put -> 0 | Get -> 1 | Fork -> 2 | Merge -> 3

type op = {
  kind : kind;
  req : Wire.request;
  expect : Wire.value option;  (** what a [Get] must return *)
  user_bytes : int;  (** value bytes a [Put] writes *)
}

type t = {
  preload : op list;  (** puts that build the initial data set *)
  next : unit -> op;
  heads : unit -> (string * string * Wire.value) list;
      (** every (key, branch, value) the acknowledged writes left behind *)
}

let master = Forkbase.Db.default_branch

let value_bytes = function
  | Wire.Str s | Wire.Blob s -> String.length s
  | Wire.List _ | Wire.Set _ | Wire.Map _ -> invalid_arg "value_bytes: not generated"

let put ?(branch = master) key value =
  {
    kind = Put;
    req = Wire.Put { key; branch; context = ""; value };
    expect = None;
    user_bytes = value_bytes value;
  }

let get key value =
  { kind = Get; req = Wire.Get { key; branch = master }; expect = Some value; user_bytes = 0 }

let fork key new_branch =
  {
    kind = Fork;
    req = Wire.Fork { key; from_branch = master; new_branch };
    expect = None;
    user_bytes = 0;
  }

let merge key ref_branch =
  {
    kind = Merge;
    req = Wire.Merge { key; target = master; ref_branch; resolver = "right" };
    expect = None;
    user_bytes = 0;
  }

(* Whether [resp] is the correct answer to [op]. *)
let check op resp =
  match (op.kind, resp) with
  | (Put | Merge), Wire.Uid _ -> true
  | Get, Wire.Value v -> Some v = op.expect
  | Fork, Wire.Ok_unit -> true
  | _ -> false

let mix seed salt =
  Int64.(add (mul (of_int seed) 0x9E3779B97F4A7C15L) (of_int salt))

(* kv-small / dispatch-kv: YCSB, 10k keys, 128 B strings, zipf 0.99,
   half reads. *)
let kv ~seed =
  let y =
    Workload.Ycsb.create
      { num_keys = 10_000; read_ratio = 0.5; value_size = 128; theta = 0.99;
        seed = mix seed 1 }
  in
  let model = Hashtbl.create 10_000 in
  let preload =
    List.map
      (fun (key, v) ->
        Hashtbl.replace model key v;
        put key (Wire.Str v))
      (Workload.Ycsb.initial_load y)
  in
  let next () =
    match Workload.Ycsb.next y with
    | Workload.Ycsb.Read key -> get key (Wire.Str (Hashtbl.find model key))
    | Workload.Ycsb.Update (key, v) ->
        Hashtbl.replace model key v;
        put key (Wire.Str v)
  in
  let heads () =
    Hashtbl.fold (fun k v acc -> (k, master, Wire.Str v) :: acc) model []
  in
  { preload; next; heads }

(* durable-commit: connection [conn] of [conns] owns its own share of the
   10k accounts, so the model does not depend on how the server
   interleaves the connections.  64 B strings; 80% put, 10% get, 10%
   fork. *)
let accounts ~seed ~conn ~conns =
  let n = 10_000 / conns in
  let rng = Splitmix.create (mix seed (1000 + conn)) in
  let key i = Printf.sprintf "acct-%d-%05d" conn i in
  let model = Array.make n "" in
  let forks = ref [] and nforks = ref 0 in
  let preload =
    List.init n (fun i ->
        let v = Splitmix.alphanum rng 64 in
        model.(i) <- v;
        put (key i) (Wire.Str v))
  in
  let next () =
    let r = Splitmix.float rng in
    let i = Splitmix.int rng n in
    if r < 0.8 then begin
      let v = Splitmix.alphanum rng 64 in
      model.(i) <- v;
      put (key i) (Wire.Str v)
    end
    else if r < 0.9 then get (key i) (Wire.Str model.(i))
    else begin
      let b = Printf.sprintf "fork-%d" !nforks in
      incr nforks;
      forks := (key i, b, Wire.Str model.(i)) :: !forks;
      fork (key i) b
    end
  in
  let heads () =
    List.rev_append !forks
      (List.init n (fun i -> (key i, master, Wire.Str model.(i))))
  in
  { preload; next; heads }

(* wiki-blob: 256 pages of 32 KB, zipf 0.99 over pages, 100 B edits of
   which 90% overwrite and 10% insert.  About 40% edit master, 40% read
   master, 10% fork a draft and edit it (or edit the open draft), 10%
   merge the oldest open draft into master with resolver "right", then
   read master back.

   While a page has an open draft, master edits stay below half the page
   as it was at the fork and draft edits stay above it, each with a
   margin of two edits.  The two changed regions are then disjoint, so
   the three-way merge applies both and the merged page is exactly
   [master up to the half (shifted by master's growth)] ^ [draft from the
   half]: the generator knows what master must read after every merge. *)
let edit_size = 100
let margin = 2 * edit_size

type draft = { name : string; mutable text : string; half : int; base_len : int }

let wiki ~seed =
  let pages = 256 and size = 32 * 1024 in
  let rng = Splitmix.create (mix seed 2) in
  let zipf = Workload.Zipf.create ~n:pages ~theta:0.99 in
  let key p = Printf.sprintf "page-%03d" p in
  let master_text =
    Array.init pages (fun p -> Workload.Text_edit.initial_page ~seed:(mix seed (100 + p)) ~size)
  in
  let drafts = Array.make pages None in
  let open_drafts = Queue.create () and pending = Queue.create () in
  let ndrafts = ref 0 in
  (* An edit whose changed bytes lie in [lo, lo + len]. *)
  let edit text ~lo ~len =
    let e =
      Workload.Text_edit.random_edit rng ~page_len:len ~update_ratio:0.9 ~edit_size
    in
    let e =
      match e with
      | Workload.Text_edit.Overwrite (pos, s) -> Workload.Text_edit.Overwrite (pos + lo, s)
      | Workload.Text_edit.Insert (pos, s) -> Workload.Text_edit.Insert (pos + lo, s)
    in
    Workload.Text_edit.apply text e
  in
  let edit_draft p d =
    let lo = d.half + margin in
    d.text <- edit d.text ~lo ~len:(String.length d.text - lo);
    put ~branch:d.name (key p) (Wire.Blob d.text)
  in
  let fork_or_edit_draft p =
    match drafts.(p) with
    | Some d -> edit_draft p d
    | None ->
        let name = Printf.sprintf "draft-%d" !ndrafts in
        incr ndrafts;
        let text = master_text.(p) in
        let d = { name; text; half = String.length text / 2; base_len = String.length text } in
        drafts.(p) <- Some d;
        Queue.push (p, d) open_drafts;
        Queue.push (edit_draft p d) pending;
        fork (key p) name
  in
  let preload = List.init pages (fun p -> put (key p) (Wire.Blob master_text.(p))) in
  let next () =
    if not (Queue.is_empty pending) then Queue.pop pending
    else begin
      let p = Workload.Zipf.sample zipf rng in
      let r = Splitmix.float rng in
      if r < 0.4 then begin
        let text = master_text.(p) in
        let text =
          match drafts.(p) with
          | Some d -> edit text ~lo:0 ~len:(d.half - margin)
          | None -> edit text ~lo:0 ~len:(String.length text)
        in
        master_text.(p) <- text;
        put (key p) (Wire.Blob text)
      end
      else if r < 0.8 then get (key p) (Wire.Blob master_text.(p))
      else if r < 0.9 || Queue.is_empty open_drafts then fork_or_edit_draft p
      else begin
        let q, d = Queue.pop open_drafts in
        drafts.(q) <- None;
        let m = master_text.(q) in
        let cut = d.half + String.length m - d.base_len in
        let merged =
          String.sub m 0 cut ^ String.sub d.text d.half (String.length d.text - d.half)
        in
        master_text.(q) <- merged;
        Queue.push (get (key q) (Wire.Blob merged)) pending;
        merge (key q) d.name
      end
    end
  in
  let heads () =
    List.init pages (fun p -> (key p, master, Wire.Blob master_text.(p)))
  in
  { preload; next; heads }
