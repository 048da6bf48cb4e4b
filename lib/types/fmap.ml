module Kv_elem = struct
  type t = string * string

  let encode buf (k, v) =
    Fbutil.Codec.string buf k;
    Fbutil.Codec.string buf v

  let decode r =
    let k = Fbutil.Codec.read_string r in
    let v = Fbutil.Codec.read_string r in
    (k, v)

  let key (k, _) = k
  let sorted = true
  let leaf_tag = Fbchunk.Chunk.Map
  let index_tag = Fbchunk.Chunk.SIndex
end

module T = Fbtree.Pos_tree.Make (Kv_elem)

type t = T.t

let empty = T.empty

let create store cfg kvs =
  T.set_sorted_many (empty store cfg) kvs

let of_root = T.of_root
let root = T.root
let cardinal = T.length
let equal = T.equal
let find t k = Option.map snd (T.find t k)
let mem t k = T.find t k <> None
let set t k v = T.set_sorted t (k, v)
let set_many t kvs = T.set_sorted_many t kvs
let remove t k = T.remove_sorted t k
let bindings = T.to_list
let to_seq = T.to_seq
let to_seq_from = T.seq_from_key
let fold f init t = Seq.fold_left (fun acc (k, v) -> f acc k v) init (to_seq t)

let diff a b =
  List.map
    (function
      | `Left (k, v) -> (k, `Left v)
      | `Right (k, v) -> (k, `Right v)
      | `Changed ((k, v1), (_, v2)) -> (k, `Changed (v1, v2)))
    (T.diff_sorted a b)

let chunk_count = T.chunk_count
let iter_chunks = T.iter_cids
let verify = T.verify
