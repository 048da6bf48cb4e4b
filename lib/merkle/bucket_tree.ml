module SMap = Map.Make (String)

(* Children per upper-level node. *)
let fanout = 5

type t = {
  buckets : string SMap.t array;
  mutable levels : string array array;
      (* levels.(0) = bucket hashes; each upper level hashes [fanout]
         children; last level is the single root *)
  mutable hashed_bytes : int;
  mutable key_count : int;
}

let bucket_of t key = Hashtbl.hash key mod Array.length t.buckets

let hash_bucket t data =
  let buf = Buffer.create 256 in
  SMap.iter
    (fun k v ->
      Fbutil.Codec.string buf k;
      Fbutil.Codec.string buf v)
    data;
  let bytes = Buffer.contents buf in
  t.hashed_bytes <- t.hashed_bytes + String.length bytes;
  Fbhash.Sha256.digest bytes

let build_levels t =
  let rec go acc current =
    if Array.length current <= 1 then List.rev (current :: acc)
    else begin
      let n = (Array.length current + fanout - 1) / fanout in
      let upper =
        Array.init n (fun i ->
            let lo = i * fanout in
            let hi = min (lo + fanout) (Array.length current) in
            let buf = Buffer.create (32 * fanout) in
            for j = lo to hi - 1 do
              Buffer.add_string buf current.(j)
            done;
            let bytes = Buffer.contents buf in
            t.hashed_bytes <- t.hashed_bytes + String.length bytes;
            Fbhash.Sha256.digest bytes)
      in
      go (current :: acc) upper
    end
  in
  go [] (Array.map (hash_bucket t) t.buckets)

let create ~num_buckets () =
  if num_buckets <= 0 then invalid_arg "Bucket_tree.create";
  let t =
    {
      buckets = Array.make num_buckets SMap.empty;
      levels = [||];
      hashed_bytes = 0;
      key_count = 0;
    }
  in
  t.levels <- Array.of_list (build_levels t);
  t

let get t key = SMap.find_opt key t.buckets.(bucket_of t key)

(* Recompute the hash path for dirty bucket [b]. *)
let rehash_path t dirty =
  let levels = t.levels in
  List.iter (fun b -> levels.(0).(b) <- hash_bucket t t.buckets.(b)) dirty;
  let parents = List.sort_uniq compare (List.map (fun b -> b / fanout) dirty) in
  let rec up level parents =
    if level + 1 < Array.length levels then begin
      let current = levels.(level) and upper = levels.(level + 1) in
      List.iter
        (fun p ->
          let lo = p * fanout in
          let hi = min (lo + fanout) (Array.length current) in
          let buf = Buffer.create (32 * fanout) in
          for j = lo to hi - 1 do
            Buffer.add_string buf current.(j)
          done;
          let bytes = Buffer.contents buf in
          t.hashed_bytes <- t.hashed_bytes + String.length bytes;
          upper.(p) <- Fbhash.Sha256.digest bytes)
        parents;
      up (level + 1) (List.sort_uniq compare (List.map (fun p -> p / fanout) parents))
    end
  in
  up 0 parents

let apply t writes =
  let dirty = ref [] in
  List.iter
    (fun (key, value) ->
      let b = bucket_of t key in
      let data = t.buckets.(b) in
      let had = SMap.mem key data in
      (match value with
      | Some v ->
          t.buckets.(b) <- SMap.add key v data;
          if not had then t.key_count <- t.key_count + 1
      | None ->
          t.buckets.(b) <- SMap.remove key data;
          if had then t.key_count <- t.key_count - 1);
      dirty := b :: !dirty)
    writes;
  rehash_path t (List.sort_uniq compare !dirty);
  t.levels.(Array.length t.levels - 1).(0)

let root_hash t = t.levels.(Array.length t.levels - 1).(0)
let hashed_bytes t = t.hashed_bytes
let key_count t = t.key_count
