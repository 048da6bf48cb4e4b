module Dataset = Workload.Dataset

type version = int

type t = {
  records : (int, string) Hashtbl.t; (* rid -> serialized record *)
  mutable next_rid : int;
  versions : (version, int array) Hashtbl.t; (* version -> rid vector *)
  mutable next_version : int;
  mutable record_bytes : int;
  mutable vector_slots : int;
}

let create () =
  {
    records = Hashtbl.create 4096;
    next_rid = 0;
    versions = Hashtbl.create 16;
    next_version = 1;
    record_bytes = 0;
    vector_slots = 0;
  }

let store_record t serialized =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  Hashtbl.replace t.records rid serialized;
  t.record_bytes <- t.record_bytes + String.length serialized;
  rid

let register_vector t vector =
  let v = t.next_version in
  t.next_version <- v + 1;
  Hashtbl.replace t.versions v vector;
  t.vector_slots <- t.vector_slots + Array.length vector;
  v

let import t records =
  let vector =
    Array.map (fun r -> store_record t (Dataset.to_csv_row r)) records
  in
  register_vector t vector

let vector_exn t v =
  match Hashtbl.find_opt t.versions v with
  | Some vec -> vec
  | None -> invalid_arg (Printf.sprintf "Orpheus: unknown version %d" v)

let checkout t v =
  Array.map
    (fun rid -> Dataset.of_csv_row (Hashtbl.find t.records rid))
    (vector_exn t v)

let commit t ~parent records =
  let parent_vec = vector_exn t parent in
  let n = Array.length records in
  let vector =
    Array.init n (fun i ->
        let serialized = Dataset.to_csv_row records.(i) in
        if i < Array.length parent_vec
           && String.equal (Hashtbl.find t.records parent_vec.(i)) serialized
        then parent_vec.(i)
        else store_record t serialized)
  in
  register_vector t vector

let sum_qty t v =
  Array.fold_left
    (fun acc rid -> acc + (Dataset.of_csv_row (Hashtbl.find t.records rid)).Dataset.qty)
    0 (vector_exn t v)

let diff_versions t v1 v2 =
  let a = vector_exn t v1 and b = vector_exn t v2 in
  let diff = ref (abs (Array.length a - Array.length b)) in
  let n = min (Array.length a) (Array.length b) in
  for i = 0 to n - 1 do
    if a.(i) <> b.(i) then incr diff
  done;
  !diff

let storage_bytes t = t.record_bytes + (8 * t.vector_slots)
let record_count t = Hashtbl.length t.records
