module SMap = Map.Make (String)

type config = {
  memtable_bytes : int;
  level0_tables : int;
  level_base_bytes : int;
  level_ratio : int;
}

let default_config =
  {
    memtable_bytes = 1 lsl 20;
    level0_tables = 4;
    level_base_bytes = 4 lsl 20;
    level_ratio = 10;
  }

type stats = {
  levels : int;
  bytes : int;
  compactions : int;
  gets : int;
  tables_probed : int;
}

type t = {
  cfg : config;
  mutable memtable : Sstable.entry SMap.t;
  mutable mem_bytes : int;
  mutable level0 : Sstable.t list; (* newest first, may overlap *)
  mutable levels : Sstable.t list array; (* levels.(i) = L(i+1), sorted, disjoint *)
  mutable compactions : int;
  mutable gets : int;
  mutable tables_probed : int;
}

let create ?(config = default_config) () =
  {
    cfg = config;
    memtable = SMap.empty;
    mem_bytes = 0;
    level0 = [];
    levels = Array.make 8 [];
    compactions = 0;
    gets = 0;
    tables_probed = 0;
  }

let level_bytes tables =
  List.fold_left (fun acc t -> acc + Sstable.byte_size t) 0 tables

(* Merge several entry sequences; earlier sources take precedence on equal
   keys.  [drop_tombstones] when merging into the bottom level. *)
let merge_runs ~drop_tombstones seqs =
  (* Pull the head of each sequence; repeatedly take the smallest key,
     resolving ties by source priority (lower index wins). *)
  let heads = Array.of_list (List.map (fun s -> s ()) seqs) in
  let out = ref [] in
  let rec smallest i best =
    if i >= Array.length heads then best
    else
      let best' =
        match (heads.(i), best) with
        | Seq.Nil, _ -> best
        | Seq.Cons ((k, _), _), Some (_, (bk, _)) when String.compare k bk >= 0 ->
            best
        | Seq.Cons (kv, _), _ -> Some (i, kv)
      in
      smallest (i + 1) best'
  in
  let advance i =
    match heads.(i) with Seq.Nil -> () | Seq.Cons (_, rest) -> heads.(i) <- rest ()
  in
  let rec drop_key key i =
    if i < Array.length heads then begin
      (match heads.(i) with
      | Seq.Cons ((k, _), _) when String.equal k key -> advance i
      | _ -> ());
      drop_key key (i + 1)
    end
  in
  let continue = ref true in
  while !continue do
    match smallest 0 None with
    | None -> continue := false
    | Some (i, (k, e)) ->
        advance i;
        drop_key k (i + 1);
        (match e with
        | Sstable.Tombstone when drop_tombstones -> ()
        | e -> out := (k, e) :: !out)
  done;
  List.rev !out

let flush t =
  if not (SMap.is_empty t.memtable) then begin
    let kvs = SMap.bindings t.memtable in
    t.level0 <- Sstable.of_sorted kvs :: t.level0;
    t.memtable <- SMap.empty;
    t.mem_bytes <- 0
  end

(* Compact all of L0 (plus overlapping L1) into L1, then cascade deeper
   levels whenever they exceed their size target. *)
let rec maybe_compact t =
  if List.length t.level0 > t.cfg.level0_tables then begin
    t.compactions <- t.compactions + 1;
    let sources = List.map Sstable.to_seq t.level0 @ List.map Sstable.to_seq t.levels.(0) in
    let bottom = Array.for_all (fun l -> l = []) (Array.sub t.levels 1 (Array.length t.levels - 1)) in
    let merged = merge_runs ~drop_tombstones:bottom sources in
    t.level0 <- [];
    t.levels.(0) <- (if merged = [] then [] else [ Sstable.of_sorted merged ]);
    cascade t 0
  end

and cascade t i =
  if i < Array.length t.levels - 1 then begin
    let target = t.cfg.level_base_bytes * int_of_float (float_of_int t.cfg.level_ratio ** float_of_int i) in
    if level_bytes t.levels.(i) > target then begin
      t.compactions <- t.compactions + 1;
      let sources =
        List.map Sstable.to_seq t.levels.(i) @ List.map Sstable.to_seq t.levels.(i + 1)
      in
      let bottom =
        Array.for_all (fun l -> l = [])
          (Array.sub t.levels (i + 2) (Array.length t.levels - i - 2))
      in
      let merged = merge_runs ~drop_tombstones:bottom sources in
      t.levels.(i) <- [];
      t.levels.(i + 1) <- (if merged = [] then [] else [ Sstable.of_sorted merged ]);
      cascade t (i + 1)
    end
  end

let write t key entry =
  let old_size =
    match SMap.find_opt key t.memtable with
    | Some (Sstable.Value v) -> String.length key + String.length v
    | Some Sstable.Tombstone -> String.length key
    | None -> 0
  in
  let new_size =
    String.length key
    + (match entry with Sstable.Value v -> String.length v | Sstable.Tombstone -> 0)
  in
  t.memtable <- SMap.add key entry t.memtable;
  t.mem_bytes <- t.mem_bytes - old_size + new_size;
  if t.mem_bytes > t.cfg.memtable_bytes then begin
    flush t;
    maybe_compact t
  end

let put t key value = write t key (Sstable.Value value)
let delete t key = write t key Sstable.Tombstone

let get t key =
  t.gets <- t.gets + 1;
  let entry_to_value = function Sstable.Value v -> Some v | Sstable.Tombstone -> None in
  match SMap.find_opt key t.memtable with
  | Some e -> entry_to_value e
  | None -> (
      let rec probe_l0 = function
        | [] -> `Continue
        | table :: rest -> (
            t.tables_probed <- t.tables_probed + 1;
            match Sstable.get table key with
            | Some e -> `Done (entry_to_value e)
            | None -> probe_l0 rest)
      in
      match probe_l0 t.level0 with
      | `Done v -> v
      | `Continue ->
          let result = ref None and found = ref false in
          let i = ref 0 in
          while (not !found) && !i < Array.length t.levels do
            List.iter
              (fun table ->
                if not !found then begin
                  t.tables_probed <- t.tables_probed + 1;
                  match Sstable.get table key with
                  | Some e ->
                      found := true;
                      result := entry_to_value e
                  | None -> ()
                end)
              t.levels.(!i);
            incr i
          done;
          !result)

let iter_range t ~lo ~hi f =
  let in_range k = String.compare lo k <= 0 && String.compare k hi <= 0 in
  let mem_seq =
    SMap.to_seq t.memtable |> Seq.filter (fun (k, _) -> in_range k)
  in
  let table_seqs =
    List.filter_map
      (fun table ->
        if Sstable.overlaps table ~lo ~hi then
          Some (Seq.filter (fun (k, _) -> in_range k) (Sstable.to_seq table))
        else None)
      (t.level0 @ List.concat (Array.to_list t.levels))
  in
  let merged = merge_runs ~drop_tombstones:true (mem_seq :: table_seqs) in
  List.iter (fun (k, e) -> match e with Sstable.Value v -> f k v | Sstable.Tombstone -> ()) merged

let stats t =
  let all_tables = t.level0 @ List.concat (Array.to_list t.levels) in
  let deepest =
    let rec last i acc = if i >= Array.length t.levels then acc else last (i + 1) (if t.levels.(i) <> [] then i + 1 else acc) in
    last 0 0
  in
  {
    levels = (if t.level0 = [] then 0 else 1) + deepest;
    bytes = t.mem_bytes + level_bytes all_tables;
    compactions = t.compactions;
    gets = t.gets;
    tables_probed = t.tables_probed;
  }
