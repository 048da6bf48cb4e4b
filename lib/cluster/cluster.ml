module Store = Fbchunk.Chunk_store
module Chunk = Fbchunk.Chunk

type mode = One_layer | Two_layer

type t = {
  locals : Store.t array; (* one chunk storage per node *)
  servlets : Forkbase.Db.t array;
}

(* The store a servlet uses in two-layer mode: meta chunks stay local,
   everything else is partitioned by cid across the pool (§4.6). *)
let two_layer_store locals i =
  let nodes = Array.length locals in
  let local = locals.(i) in
  let route cid = Partition.node_of_cid ~nodes cid in
  let put chunk =
    if chunk.Chunk.tag = Chunk.Meta then local.Store.put chunk
    else locals.(route (Chunk.cid chunk)).Store.put chunk
  in
  let get cid =
    match local.Store.get cid with
    | Some _ as r -> r
    | None -> locals.(route cid).Store.get cid
  in
  let mem cid = local.Store.mem cid || locals.(route cid).Store.mem cid in
  { Store.put; get; mem; stats = local.Store.stats }

let create ~n mode =
  if n <= 0 then invalid_arg "Cluster.create";
  let locals = Array.init n (fun _ -> Store.mem_store ()) in
  let servlets =
    Array.init n (fun i ->
        let store =
          match mode with
          | One_layer -> locals.(i)
          | Two_layer -> two_layer_store locals i
        in
        Forkbase.Db.create store)
  in
  { locals; servlets }

let db_for_key t key =
  t.servlets.(Partition.servlet_of_key ~servlets:(Array.length t.servlets) key)

let storage_distribution t =
  Array.map (fun s -> (s.Store.stats ()).Store.bytes) t.locals

let imbalance t =
  let dist = storage_distribution t in
  let total = Array.fold_left ( + ) 0 dist in
  let mean = float_of_int total /. float_of_int (Array.length dist) in
  if mean = 0.0 then 1.0
  else float_of_int (Array.fold_left max 0 dist) /. mean
