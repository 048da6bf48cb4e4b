module Cid = Fbchunk.Cid
module Chunk = Fbchunk.Chunk

let children (chunk : Chunk.t) =
  match chunk.Chunk.tag with
  | Chunk.Meta -> (
      let obj = Fobject.of_chunk chunk in
      match obj.Fobject.kind with
      | Fbtypes.Value.Kprim -> obj.Fobject.bases
      | _ -> obj.Fobject.bases @ [ Cid.of_raw obj.Fobject.data ])
  | Chunk.UIndex | Chunk.SIndex -> Fbtree.Pos_tree.index_children chunk
  | Chunk.Blob | Chunk.List | Chunk.Set | Chunk.Map -> []

let max_batch = 512

(* [Asked] marks the cids of the batch in flight: only an answer for one
   of those counts, so a peer that repeats itself or answers with
   unrequested chunks cannot stall the walk. *)
type state = Queued | Asked | Done

let walk ~fetch roots =
  let state = Cid.Tbl.create 256 in
  let queue = Queue.create () in
  let enqueue cid =
    if not (Cid.Tbl.mem state cid) then begin
      Cid.Tbl.add state cid Queued;
      Queue.add cid queue
    end
  in
  List.iter enqueue roots;
  let rec take n acc =
    if n = 0 || Queue.is_empty queue then List.rev acc
    else begin
      let cid = Queue.pop queue in
      Cid.Tbl.replace state cid Asked;
      take (n - 1) (cid :: acc)
    end
  in
  let missing = ref [] in
  while not (Queue.is_empty queue) do
    let batch = take max_batch [] in
    let answered = ref false in
    List.iter
      (fun (cid, chunk) ->
        if Cid.Tbl.find_opt state cid = Some Asked then begin
          Cid.Tbl.replace state cid Done;
          answered := true;
          List.iter enqueue (children chunk)
        end)
      (fetch batch);
    let left = List.filter (fun cid -> Cid.Tbl.find state cid = Asked) batch in
    if !answered then
      List.iter
        (fun cid ->
          Cid.Tbl.replace state cid Queued;
          Queue.add cid queue)
        left
    else
      List.iter
        (fun cid ->
          Cid.Tbl.replace state cid Done;
          missing := cid :: !missing)
        left
  done;
  List.rev !missing
