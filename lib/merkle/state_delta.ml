module Codec = Fbutil.Codec

type entry = { key : string; prev : string option; next : string option }
type t = entry list

let encode t =
  let buf = Buffer.create 256 in
  Codec.list buf
    (fun buf e ->
      Codec.string buf e.key;
      Codec.option buf Codec.string e.prev;
      Codec.option buf Codec.string e.next)
    t;
  Buffer.contents buf

let decode s =
  let r = Codec.reader s in
  let t =
    Codec.read_list r (fun r ->
        let key = Codec.read_string r in
        let prev = Codec.read_option r Codec.read_string in
        let next = Codec.read_option r Codec.read_string in
        { key; prev; next })
  in
  Codec.expect_end r;
  t
