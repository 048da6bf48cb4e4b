(* Extensions beyond the headline path: chunk replication, iterators,
   delta-chain baseline, and the distributed service layer with
   re-balanced construction. *)

module Store = Fbchunk.Chunk_store
module Chunk = Fbchunk.Chunk
module Cid = Fbchunk.Cid
module Fmap = Fbtypes.Fmap
module Flist = Fbtypes.Flist
module Fblob = Fbtypes.Fblob
module DS = Deltastore.Delta_store

let cfg = Fbtree.Tree_config.with_leaf_bits 8

(* --- replicated chunk store --- *)

let chunk i = Chunk.v Chunk.Blob (Printf.sprintf "payload-%04d-%s" i (String.make 50 'x'))

let test_replication_basic () =
  let members = List.init 5 (fun _ -> Store.mem_store ()) in
  let pool = Store.replicated members ~replicas:3 ~route:Cid.low_bits in
  let cids = List.init 50 (fun i -> pool.Store.put (chunk i)) in
  (* every chunk readable *)
  List.iteri
    (fun i cid ->
      match pool.Store.get cid with
      | Some c -> Alcotest.(check bool) "content" true (c = chunk i)
      | None -> Alcotest.fail "missing chunk")
    cids;
  (* exactly 3 copies of each chunk exist across members *)
  let copies cid =
    List.length (List.filter (fun m -> m.Store.mem cid) members)
  in
  List.iter (fun cid -> Alcotest.(check int) "3 replicas" 3 (copies cid)) cids

let test_replication_tolerates_failures () =
  let members = Array.init 5 (fun _ -> Store.mem_store ()) in
  (* wrap two members so their reads fail (a dead node) *)
  let dead = [| false; false; false; false; false |] in
  let wrapped =
    Array.to_list
      (Array.mapi
         (fun i m ->
           {
             m with
             Store.get = (fun cid -> if dead.(i) then None else m.Store.get cid);
           })
         members)
  in
  let pool = Store.replicated wrapped ~replicas:3 ~route:Cid.low_bits in
  let cids = List.init 40 (fun i -> pool.Store.put (chunk i)) in
  dead.(1) <- true;
  dead.(3) <- true;
  (* with 2 of 5 nodes dead and 3 replicas, everything stays readable *)
  List.iteri
    (fun i cid ->
      match pool.Store.get cid with
      | Some c -> Alcotest.(check bool) "survives 2 failures" true (c = chunk i)
      | None -> Alcotest.fail "chunk lost with 2/5 nodes dead")
    cids

let test_replication_skips_corruption () =
  let members = List.init 3 (fun _ -> Store.mem_store ()) in
  let arr = Array.of_list members in
  let pool = Store.replicated members ~replicas:2 ~route:Cid.low_bits in
  let cid = pool.Store.put (chunk 0) in
  (* corrupt the primary replica by swapping in a different chunk under a
     lying store *)
  let home = Cid.low_bits cid mod 3 in
  let liar =
    { (arr.(home)) with Store.get = (fun _ -> Some (chunk 999)) }
  in
  let members' =
    List.mapi (fun i m -> if i = home then liar else m) (Array.to_list arr)
  in
  let pool' = Store.replicated members' ~replicas:2 ~route:Cid.low_bits in
  (match pool'.Store.get cid with
  | Some c -> Alcotest.(check bool) "fell back to good replica" true (c = chunk 0)
  | None -> Alcotest.fail "lost chunk");
  ignore pool

(* --- iterators --- *)

let test_map_range_iterator () =
  let store = Store.mem_store () in
  let m =
    Fmap.create store cfg (List.init 500 (fun i -> (Printf.sprintf "k%04d" i, string_of_int i)))
  in
  let from = Fmap.to_seq_from m "k0490" in
  Alcotest.(check (list (pair string string)))
    "tail scan"
    (List.init 10 (fun i -> (Printf.sprintf "k%04d" (490 + i), string_of_int (490 + i))))
    (List.of_seq from);
  (* from a key between two existing keys *)
  let between = List.of_seq (Fmap.to_seq_from m "k0497x") in
  Alcotest.(check int) "between keys" 2 (List.length between);
  Alcotest.(check (list (pair string string))) "past the end" []
    (List.of_seq (Fmap.to_seq_from m "zzz"))

let test_list_pos_iterator () =
  let store = Store.mem_store () in
  let l = Flist.create store cfg (List.init 300 string_of_int) in
  Alcotest.(check (list string)) "suffix" [ "297"; "298"; "299" ]
    (List.of_seq (Flist.to_seq_from l ~pos:297));
  Alcotest.(check (list string)) "at end" [] (List.of_seq (Flist.to_seq_from l ~pos:300))

let test_set_range_iterator () =
  let store = Store.mem_store () in
  let s = Fbtypes.Fset.create store cfg [ "ant"; "bee"; "cat"; "dog" ] in
  Alcotest.(check (list string)) "from bee" [ "bee"; "cat"; "dog" ]
    (List.of_seq (Fbtypes.Fset.to_seq_from s "bee"))

(* --- delta store baseline --- *)

let test_delta_roundtrip () =
  let d = DS.create ~snapshot_every:4 () in
  let versions = List.init 20 (fun i -> Printf.sprintf "version %d of the doc %s" i (String.make i 'x')) in
  List.iteri
    (fun i v -> Alcotest.(check int) "version number" i (DS.commit d ~key:"doc" v))
    versions;
  List.iteri
    (fun i expected ->
      Alcotest.(check (option string))
        (Printf.sprintf "get v%d" i)
        (Some expected)
        (DS.get d ~key:"doc" ~version:i))
    versions;
  Alcotest.(check (option string)) "latest" (Some (List.nth versions 19))
    (DS.latest d ~key:"doc");
  Alcotest.(check (option string)) "out of range" None (DS.get d ~key:"doc" ~version:20);
  Alcotest.(check (option string)) "unknown key" None (DS.latest d ~key:"nope");
  Alcotest.(check int) "version count" 20 (DS.version_count d ~key:"doc")

let prop_delta_model =
  QCheck.Test.make ~name:"delta store reconstructs every version" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 30) (string_of_size (Gen.int_bound 200)))
    (fun contents ->
      let d = DS.create ~snapshot_every:5 () in
      List.iter (fun c -> ignore (DS.commit d ~key:"k" c)) contents;
      List.for_all
        (fun (i, expected) -> DS.get d ~key:"k" ~version:i = Some expected)
        (List.mapi (fun i c -> (i, c)) contents))

let test_delta_storage_small_for_small_edits () =
  let d = DS.create ~snapshot_every:64 () in
  let page = Workload.Text_edit.initial_page ~seed:1L ~size:10_000 in
  let content = ref page in
  ignore (DS.commit d ~key:"p" !content);
  for i = 1 to 30 do
    content := Workload.Text_edit.apply !content (Workload.Text_edit.Overwrite (i * 100, "ED"));
    ignore (DS.commit d ~key:"p" !content)
  done;
  (* 30 tiny edits should cost far less than 30 full copies *)
  Alcotest.(check bool)
    (Printf.sprintf "delta storage %d" (DS.storage_bytes d))
    true
    (DS.storage_bytes d < 3 * 10_000)

(* --- blob height / bulk path --- *)

let test_blob_height () =
  let store = Store.mem_store () in
  let small = Fblob.create store cfg "tiny" in
  let big = Fblob.create store cfg (String.init 100_000 (fun i -> Char.chr (i land 0xff))) in
  Alcotest.(check int) "single leaf" 1 (Fblob.height small);
  Alcotest.(check bool) "multi level" true (Fblob.height big > 1)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "extensions"
    [
      ( "replication",
        [
          Alcotest.test_case "basic" `Quick test_replication_basic;
          Alcotest.test_case "node failures" `Quick test_replication_tolerates_failures;
          Alcotest.test_case "corruption fallback" `Quick test_replication_skips_corruption;
        ] );
      ( "iterators",
        [
          Alcotest.test_case "map range" `Quick test_map_range_iterator;
          Alcotest.test_case "list position" `Quick test_list_pos_iterator;
          Alcotest.test_case "set range" `Quick test_set_range_iterator;
        ] );
      ( "delta-store",
        [
          Alcotest.test_case "roundtrip" `Quick test_delta_roundtrip;
          q prop_delta_model;
          Alcotest.test_case "small-edit storage" `Quick
            test_delta_storage_small_for_small_edits;
        ] );
      ("blob", [ Alcotest.test_case "height" `Quick test_blob_height ]);
    ]
