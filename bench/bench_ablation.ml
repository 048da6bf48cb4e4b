(* Ablations of the POS-Tree design choices called out in §4.3:
   - content-defined vs fixed-size chunking (the boundary-shifting problem),
   - the rolling-hash family used for pattern P,
   - expected chunk size (storage overhead vs update cost),
   - content-based chunking vs delta chains (§2.1's two dedup families),
   - copy-on-write blob puts: a full rebuild vs a rebase onto the head,
   - blob merges: two region splices vs assembly by chunk reference. *)

module Store = Fbchunk.Chunk_store
module Fblob = Fbtypes.Fblob

let doc_size scale = Bench_util.pick scale (256 * 1024) (4 * 1024 * 1024)

(* Fixed-size chunking expressed in the same chunker: suppress the pattern
   entirely (min = max), so every node is cut at exactly the target size. *)
let fixed_cfg bits =
  let target = 1 lsl bits in
  {
    (Fbtree.Tree_config.with_leaf_bits bits) with
    Fbtree.Tree_config.min_leaf_bytes = target;
    max_leaf_bytes = target;
  }

(* Ablation A: insert a few bytes near the front of a large blob.  With
   content-defined boundaries only the neighbourhood is rewritten; with
   fixed-size nodes every boundary after the insertion shifts (§4.3,
   boundary-shifting problem). *)
let ablation_fixed scale =
  Bench_util.section "Ablation: content-defined vs fixed-size chunking";
  let content = Workload.Text_edit.initial_page ~seed:3L ~size:(doc_size scale) in
  Bench_util.row_header
    [ "chunking"; "op"; "new-chunks"; "new-bytes"; "latency(ms)" ];
  List.iter
    (fun (label, cfg) ->
      let store = Store.mem_store () in
      let blob = Fblob.create store cfg content in
      List.iter
        (fun (op, pos, ins) ->
          let before = store.Store.stats () in
          let chunks0 = before.Store.chunks and bytes0 = before.Store.bytes in
          let elapsed, _ =
            Bench_util.time_it (fun () -> Fblob.insert blob ~pos ins)
          in
          let after = store.Store.stats () in
          Bench_json.metric
            ~name:(Printf.sprintf "%s_%s_new_bytes" label op)
            ~value:(float_of_int (after.Store.bytes - bytes0))
            ~unit:"bytes";
          Bench_json.metric
            ~name:(Printf.sprintf "%s_%s_latency" label op)
            ~value:(elapsed *. 1000.) ~unit:"ms";
          Bench_util.row
            [
              label; op;
              string_of_int (after.Store.chunks - chunks0);
              Bench_util.human_bytes (after.Store.bytes - bytes0);
              Bench_util.ms elapsed;
            ])
        [
          ("insert@front", 64, "INSERTED-BYTES");
          ("insert@middle", String.length content / 2, "INSERTED-BYTES");
        ])
    [
      ("pos-tree", Fbtree.Tree_config.default);
      ("fixed-4K", fixed_cfg 12);
    ]

(* Ablation B: the rolling-hash family for pattern P (§4.3.2 lists cyclic
   polynomial, Rabin-Karp and moving sum).  Build cost, chunk-size spread,
   and dedup quality after edits. *)
let ablation_rolling scale =
  Bench_util.section "Ablation: rolling hash family for pattern P";
  let content = Workload.Text_edit.initial_page ~seed:5L ~size:(doc_size scale) in
  let rng = Fbutil.Splitmix.create 6L in
  let edits =
    List.init 20 (fun _ ->
        Workload.Text_edit.random_edit rng ~page_len:(String.length content)
          ~update_ratio:0.5 ~edit_size:100)
  in
  Bench_util.row_header
    [ "family"; "build(ms)"; "chunks"; "avg-chunk"; "20-edit growth" ];
  List.iter
    (fun (label, kind) ->
      let cfg = { Fbtree.Tree_config.default with Fbtree.Tree_config.rolling = kind } in
      let store = Store.mem_store () in
      let build_ms, blob =
        Bench_util.time_it (fun () -> Fblob.create store cfg content)
      in
      let base_bytes = (store.Store.stats ()).Store.bytes in
      List.iter
        (fun edit ->
          ignore
            (match edit with
            | Workload.Text_edit.Overwrite (pos, text) ->
                Fblob.overwrite blob ~pos text
            | Workload.Text_edit.Insert (pos, text) -> Fblob.insert blob ~pos text))
        edits;
      let growth = (store.Store.stats ()).Store.bytes - base_bytes in
      Bench_json.metric
        ~name:(label ^ "_build_latency")
        ~value:(build_ms *. 1000.) ~unit:"ms";
      Bench_json.metric
        ~name:(label ^ "_20_edit_growth")
        ~value:(float_of_int growth) ~unit:"bytes";
      Bench_util.row
        [
          label;
          Bench_util.ms build_ms;
          string_of_int (Fblob.chunk_count blob);
          Bench_util.human_bytes (String.length content / max 1 (Fblob.chunk_count blob));
          Bench_util.human_bytes growth;
        ])
    [
      ("cyclic-poly", Fbhash.Rolling.Cyclic_poly);
      ("rabin-karp", Fbhash.Rolling.Rabin_karp);
      ("moving-sum", Fbhash.Rolling.Moving_sum);
    ]

(* Ablation C: expected chunk size (2^q).  Small chunks dedup better and
   localize updates; large chunks reduce index depth and metadata. *)
let ablation_chunk_size scale =
  Bench_util.section "Ablation: expected chunk size (leaf_bits sweep)";
  let content = Workload.Text_edit.initial_page ~seed:9L ~size:(doc_size scale) in
  Bench_util.row_header
    [ "leaf-bits"; "chunks"; "height"; "storage"; "edit-growth"; "edit(ms)" ];
  List.iter
    (fun bits ->
      let cfg = Fbtree.Tree_config.with_leaf_bits bits in
      let store = Store.mem_store () in
      let blob = Fblob.create store cfg content in
      let base = (store.Store.stats ()).Store.bytes in
      let elapsed, _ =
        Bench_util.time_it (fun () ->
            Fblob.overwrite blob ~pos:(String.length content / 3) "EDITEDEDITED")
      in
      let growth = (store.Store.stats ()).Store.bytes - base in
      Bench_json.metric
        ~name:(Printf.sprintf "leaf_bits_%d_storage" bits)
        ~value:(float_of_int base) ~unit:"bytes";
      Bench_json.metric
        ~name:(Printf.sprintf "leaf_bits_%d_edit_growth" bits)
        ~value:(float_of_int growth) ~unit:"bytes";
      Bench_util.row
        [
          string_of_int bits;
          string_of_int (Fblob.chunk_count blob);
          string_of_int (Fblob.height blob);
          Bench_util.human_bytes base;
          Bench_util.human_bytes growth;
          Bench_util.ms elapsed;
        ])
    [ 9; 10; 11; 12; 13; 14 ]

(* Ablation D: content-based chunking vs delta chains (§2.1).  Deltas win
   on storage when edits are tiny; the POS-Tree wins on random-version
   access because deltas must replay chains. *)
let ablation_delta scale =
  Bench_util.section "Ablation: POS-Tree dedup vs delta chains";
  let versions = Bench_util.pick scale 64 256 in
  let page = Workload.Text_edit.initial_page ~seed:11L ~size:(15 * 1024) in
  let rng = Fbutil.Splitmix.create 12L in
  (* Build the same version history in both systems. *)
  let store = Store.mem_store () in
  let db = Forkbase.Db.create store in
  let delta = Deltastore.Delta_store.create ~snapshot_every:32 () in
  let content = ref page in
  let all_versions = ref [] in
  for _ = 1 to versions do
    let edit =
      Workload.Text_edit.random_edit rng ~page_len:(String.length !content)
        ~update_ratio:0.9 ~edit_size:120
    in
    content := Workload.Text_edit.apply !content edit;
    let uid = Forkbase.Db.put db ~key:"doc" (Forkbase.Db.blob db !content) in
    all_versions := uid :: !all_versions;
    ignore (Deltastore.Delta_store.commit delta ~key:"doc" !content)
  done;
  let uid_array = Array.of_list (List.rev !all_versions) in
  Bench_json.metric ~name:"pos_tree_storage"
    ~value:(float_of_int (store.Store.stats ()).Store.bytes)
    ~unit:"bytes";
  Bench_json.metric ~name:"delta_chain_storage"
    ~value:(float_of_int (Deltastore.Delta_store.storage_bytes delta))
    ~unit:"bytes";
  Printf.printf "storage for %d versions: pos-tree %s, delta chains %s\n%!"
    versions
    (Bench_util.human_bytes (store.Store.stats ()).Store.bytes)
    (Bench_util.human_bytes (Deltastore.Delta_store.storage_bytes delta));
  (* Random version access cost. *)
  let reads = 200 in
  let rng = Fbutil.Splitmix.create 13L in
  let pos_time, () =
    Bench_util.time_it (fun () ->
        for _ = 1 to reads do
          let v = Fbutil.Splitmix.int rng versions in
          match Forkbase.Db.get_version db uid_array.(v) with
          | Ok (Fbtypes.Value.Blob b) -> ignore (Fbtypes.Fblob.to_string b)
          | _ -> failwith "bad version"
        done)
  in
  let delta_time, () =
    Bench_util.time_it (fun () ->
        for _ = 1 to reads do
          let v = Fbutil.Splitmix.int rng versions in
          ignore (Deltastore.Delta_store.get delta ~key:"doc" ~version:v)
        done)
  in
  Bench_json.metric ~name:"pos_tree_version_read"
    ~value:(pos_time /. float_of_int reads *. 1000.0)
    ~unit:"ms";
  Bench_json.metric ~name:"delta_chain_version_read"
    ~value:(delta_time /. float_of_int reads *. 1000.0)
    ~unit:"ms";
  Printf.printf
    "random version reads (%d): pos-tree %.2f ms/read, delta %.2f ms/read (%d replays)\n%!"
    reads
    (pos_time /. float_of_int reads *. 1000.0)
    (delta_time /. float_of_int reads *. 1000.0)
    (Deltastore.Delta_store.replay_steps delta)

(* A store that counts every put and the bytes it hashes (every put
   hashes its chunk, dedup hit or not). *)
let counting_store () =
  let inner = Store.mem_store () in
  let puts = ref 0 and hashed = ref 0 in
  let put chunk =
    incr puts;
    hashed := !hashed + Fbchunk.Chunk.byte_size chunk;
    inner.Store.put chunk
  in
  ({ inner with Store.put }, puts, hashed)

(* Ablation E: a served blob put carries the whole new page.  The full
   build re-chunks and re-hashes every byte; the rebase onto the branch
   head (what the server does) re-chunks only around the edit and reuses
   the other leaves by reference.  Both give the same root, so the counts
   below are pure wasted work: chunk-store puts and bytes hashed per put
   (every put hashes its chunk, dedup hit or not). *)
let ablation_cow _scale =
  Bench_util.section "Ablation: blob put, full build vs rebase onto the head";
  let cfg = Fbtree.Tree_config.default in
  let page = Workload.Text_edit.initial_page ~seed:14L ~size:(32 * 1024) in
  let edits = 50 in
  let versions =
    let rng = Fbutil.Splitmix.create 15L in
    let content = ref page in
    List.init edits (fun _ ->
        content :=
          Workload.Text_edit.apply !content
            (Workload.Text_edit.random_edit rng ~page_len:(String.length !content)
               ~update_ratio:0.9 ~edit_size:100);
        !content)
  in
  (* Replay the history from [page]; per-put counts and every root. *)
  let replay update =
    let store, puts, hashed = counting_store () in
    let head = ref (Fblob.create store cfg page) in
    puts := 0;
    hashed := 0;
    let roots =
      List.map
        (fun v ->
          head := update store !head v;
          Fblob.root !head)
        versions
    in
    let per n = float_of_int n /. float_of_int edits in
    (per !puts, per !hashed, roots)
  in
  let _, _, full_roots as full = replay (fun store _ v -> Fblob.create store cfg v) in
  let rebase = replay (fun _ head v -> Fblob.rebase head v) in
  Bench_util.row_header [ "put"; "puts/put"; "bytes-hashed/put"; "same-roots" ];
  List.iter
    (fun (label, (puts, hashed, roots)) ->
      Bench_json.metric ~name:(label ^ "_puts_per_put") ~value:puts ~unit:"count";
      Bench_json.metric ~name:(label ^ "_bytes_hashed_per_put") ~value:hashed
        ~unit:"bytes";
      Bench_util.row
        [
          label;
          Printf.sprintf "%.1f" puts;
          Printf.sprintf "%.0f" hashed;
          string_of_bool (List.for_all2 Fbchunk.Cid.equal roots full_roots);
        ])
    [ ("full-build", full); ("rebase", rebase) ]

(* Ablation F: a three-way blob merge on test_core's wiki-halves pattern
   (one 100 B edit below the half of a 32 KB page on master, one above
   it on the draft).  The region merge splices both regions into the
   base, re-chunking and re-hashing the leaves around each; the merge by
   reference (what [Merge] tries first) assembles the merged leaves from
   the two sides' existing ones and writes only index nodes.  Same roots;
   the counts are chunks handed to the store and bytes hashed per merge. *)
let ablation_merge _scale =
  Bench_util.section "Ablation: blob merge, two splices vs by chunk reference";
  let cfg = Fbtree.Tree_config.default in
  let page = Workload.Text_edit.initial_page ~seed:21L ~size:(32 * 1024) in
  let half = String.length page / 2 in
  let rng = Fbutil.Splitmix.create 22L in
  let edit lo =
    let pos = lo + Fbutil.Splitmix.int rng (half - 100) in
    let text = Workload.Text_edit.initial_page ~seed:(Int64.of_int pos) ~size:100 in
    if Fbutil.Splitmix.bool rng then Workload.Text_edit.Overwrite (pos, text)
    else Workload.Text_edit.Insert (pos, text)
  in
  let merges = 50 in
  let store, puts, hashed = counting_store () in
  let base = Fblob.create store cfg page in
  let rounds =
    List.init merges (fun _ ->
        let left = Fblob.rebase base (Workload.Text_edit.apply page (edit 0)) in
        (left, Fblob.rebase base (Workload.Text_edit.apply page (edit half))))
  in
  (* Both regions against base; the upper (right) one first, so the
     lower one's position still holds. *)
  let two_splices left right =
    match (Fblob.diff_region base left, Fblob.diff_region base right) with
    | Some ((bl, bl_len), (ll, ll_len)), Some ((br, br_len), (rr, rr_len)) ->
        let upper = Fblob.splice base ~pos:br ~del:br_len ~ins:(Fblob.read right ~pos:rr ~len:rr_len) in
        Some (Fblob.splice upper ~pos:bl ~del:bl_len ~ins:(Fblob.read left ~pos:ll ~len:ll_len))
    | _ -> None
  in
  let run merge =
    puts := 0;
    hashed := 0;
    let roots = List.map (fun (l, r) -> Option.map Fblob.root (merge l r)) rounds in
    let per n = float_of_int n /. float_of_int merges in
    (per !puts, per !hashed, roots)
  in
  let _, _, splice_roots as splices = run two_splices in
  let by_ref = run (fun l r -> Fblob.merge_by_ref ~base l r) in
  Bench_util.row_header [ "merge"; "puts/merge"; "bytes-hashed/merge"; "merged"; "same-roots" ];
  List.iter
    (fun (label, (puts, hashed, roots)) ->
      Bench_json.metric ~name:(label ^ "_puts_per_merge") ~value:puts ~unit:"count";
      Bench_json.metric ~name:(label ^ "_bytes_hashed_per_merge") ~value:hashed
        ~unit:"bytes";
      Bench_util.row
        [
          label;
          Printf.sprintf "%.1f" puts;
          Printf.sprintf "%.0f" hashed;
          Printf.sprintf "%d/%d" (List.length (List.filter Option.is_some roots)) merges;
          string_of_bool (List.equal (Option.equal Fbchunk.Cid.equal) roots splice_roots);
        ])
    [ ("two-splices", splices); ("by-reference", by_ref) ]
