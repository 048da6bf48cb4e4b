module Codec = Fbutil.Codec

type op = Get of string | Put of string * string
type t = { contract : string; op : op }

let encode buf t =
  Codec.string buf t.contract;
  match t.op with
  | Get k ->
      Buffer.add_char buf 'r';
      Codec.string buf k
  | Put (k, v) ->
      Buffer.add_char buf 'w';
      Codec.string buf k;
      Codec.string buf v

let digest_batch txns =
  let buf = Buffer.create 1024 in
  List.iter (encode buf) txns;
  Fbhash.Sha256.digest (Buffer.contents buf)

let of_ycsb ~contract = function
  | Workload.Ycsb.Read k -> { contract; op = Get k }
  | Workload.Ycsb.Update (k, v) -> { contract; op = Put (k, v) }
