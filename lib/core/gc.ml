module Cid = Fbchunk.Cid
module Store = Fbchunk.Chunk_store

(* Mark and visit in one pass: walk the closure of every tagged and
   untagged head through the local store, calling [f] on each live chunk;
   returns [(live_chunks, live_bytes)].  Missing cids are skipped. *)
let visit_live db f =
  let store = Db.store db in
  let chunks = ref 0 and bytes = ref 0 in
  let fetch cids =
    List.filter_map
      (fun cid ->
        match store.Store.get cid with
        | Some chunk ->
            f chunk;
            incr chunks;
            bytes := !bytes + Fbchunk.Chunk.byte_size chunk;
            Some (cid, chunk)
        | None -> None)
      cids
  in
  let heads =
    List.concat_map
      (fun key ->
        List.map snd (Db.list_tagged_branches db ~key)
        @ Db.list_untagged_branches db ~key)
      (Db.list_keys db)
  in
  let (_ : Cid.t list) = Closure.walk ~fetch heads in
  (!chunks, !bytes)

let sweep db ~into =
  visit_live db (fun chunk -> ignore (into.Store.put chunk : Cid.t))

let garbage_stats db =
  let live_chunks, live_bytes = visit_live db ignore in
  let stats = (Db.store db).Store.stats () in
  (stats.Store.chunks - live_chunks, stats.Store.bytes - live_bytes)
