module Byte_elem = struct
  type t = char

  let encode = Buffer.add_char
  let decode = Fbutil.Codec.read_byte
  let key _ = ""
  let sorted = false
  let leaf_tag = Fbchunk.Chunk.Blob
  let index_tag = Fbchunk.Chunk.UIndex
end

module T = Fbtree.Pos_tree.Make (Byte_elem)

type t = T.t

let create store cfg s = T.of_bytes store cfg s
let empty store cfg = T.empty store cfg
let of_root = T.of_root
let root = T.root
let length = T.length
let equal = T.equal

let read t ~pos ~len =
  (* Blob elements are single bytes, so leaf payloads can be copied
     wholesale instead of decoded element-wise. *)
  let b = Buffer.create len in
  T.iter_leaf_payloads t ~pos ~len (fun payload ~off ~take ->
      Buffer.add_substring b payload off take);
  Buffer.contents b

let to_string t = read t ~pos:0 ~len:(length t)

let splice = T.splice_bytes
let rebase = T.rebase_bytes

let append t s = splice t ~pos:(length t) ~del:0 ~ins:s
let insert t ~pos s = splice t ~pos ~del:0 ~ins:s
let remove t ~pos ~len = splice t ~pos ~del:len ~ins:""
let overwrite t ~pos s = splice t ~pos ~del:(String.length s) ~ins:s
let diff_region = T.diff_region_bytes
let merge_by_ref = T.merge_by_ref
let chunk_count = T.chunk_count
let height = T.height
let iter_chunks = T.iter_cids
let verify = T.verify
