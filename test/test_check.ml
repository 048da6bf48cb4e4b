(* The check layer itself: fsck invariant detection (every violation
   class constructible and detected on hand-built stores), failpoint
   schedules, typed recovery of corrupted durable stores, and the ISSUE 3
   acceptance scenario — a thousand model-driven operations with faults
   and crash-recovery cycles fscks clean, and flipping a single byte of
   one chunk record makes fsck report exactly that cid. *)

module Splitmix = Fbutil.Splitmix
module Codec = Fbutil.Codec
module Cid = Fbchunk.Cid
module Chunk = Fbchunk.Chunk
module Store = Fbchunk.Chunk_store
module Db = Forkbase.Db
module Fobject = Forkbase.Fobject
module Persist = Fbpersist.Persist
module Failpoint = Fbcheck.Failpoint
module Fsck = Fbcheck.Fsck
module Value = Fbtypes.Value
module Flist = Fbtypes.Flist
module Fmap = Fbtypes.Fmap

let cfg = Fbtree.Tree_config.with_leaf_bits 7
let cfg6 = Fbtree.Tree_config.with_leaf_bits 6

let report_str r = Format.asprintf "%a" Fsck.pp_report r

let check_clean what r =
  if not (Fsck.ok r) then
    Alcotest.fail (Printf.sprintf "%s: expected clean, got %s" what (report_str r))

let violations_str vs =
  String.concat "; " (List.map Fsck.violation_to_string vs)

(* A store whose [get] can be overridden per cid: [removed] models a lost
   chunk, [swapped] a chunk replaced by other (validly encoded) content —
   the two tamper primitives the content-addressing must catch. *)
let override_store () =
  let base = Store.mem_store () in
  let removed = Cid.Tbl.create 4 and swapped = Cid.Tbl.create 4 in
  let get cid =
    if Cid.Tbl.mem removed cid then None
    else
      match Cid.Tbl.find_opt swapped cid with
      | Some c -> Some c
      | None -> base.Store.get cid
  in
  ({ base with Store.get }, removed, swapped)

(* A database exercising every value kind plus some branch history. *)
let build_rich_db store =
  let db = Db.create ~cfg store in
  let (_ : Cid.t) = Db.put db ~key:"prim" ~context:"c1" (Db.str "hello") in
  let (_ : Cid.t) = Db.put db ~key:"prim" ~context:"c2" (Db.int 42L) in
  let (_ : Cid.t) =
    Db.put db ~key:"prim" ~branch:"dev" ~context:"c3" (Db.tuple [ "a"; "b" ])
  in
  let rng = Splitmix.create 0xB0BL in
  let (_ : Cid.t) =
    Db.put db ~key:"blob" ~context:"c4" (Db.blob db (Splitmix.bytes rng 3000))
  in
  let (_ : Cid.t) =
    Db.put db ~key:"list" ~context:"c5"
      (Db.list db (List.init 120 (fun i -> Printf.sprintf "elem-%03d" i)))
  in
  let (_ : Cid.t) =
    Db.put db ~key:"map" ~context:"c6"
      (Db.map db (List.init 120 (fun i -> (Printf.sprintf "k%03d" i, string_of_int i))))
  in
  let (_ : Cid.t) =
    Db.put db ~key:"set" ~context:"c7"
      (Db.set db (List.init 120 (fun i -> Printf.sprintf "s%03d" i)))
  in
  (match Db.fork db ~key:"map" ~from_branch:"master" ~new_branch:"side" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Db.error_to_string e));
  let base = match Db.head db ~key:"map" with Ok u -> u | Error _ -> assert false in
  (match
     Db.put_at db ~key:"map" ~base ~context:"c8"
       (Db.map db [ ("k000", "updated") ])
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Db.error_to_string e));
  db

(* The POS-Tree root cid of [key]'s master head (its meta data field). *)
let tree_root_of db ~key =
  match Db.head db ~key with
  | Error e -> Alcotest.fail (Db.error_to_string e)
  | Ok uid -> (
      match Db.get_object db uid with
      | Error e -> Alcotest.fail (Db.error_to_string e)
      | Ok obj ->
          Alcotest.(check int) "head holds a tree" 32 (String.length obj.Fobject.data);
          Cid.of_raw obj.Fobject.data)

(* --- fsck ----------------------------------------------------------- *)

let test_clean_db () =
  let db = build_rich_db (Store.mem_store ()) in
  let r = Fsck.check_db db in
  check_clean "rich db" r;
  Alcotest.(check int) "keys walked" 5 r.Fsck.keys;
  Alcotest.(check bool) "versions walked" true (r.Fsck.versions >= 8);
  Alcotest.(check bool) "trees walked" true (r.Fsck.trees >= 4);
  Alcotest.(check bool) "chunks fetched" true (r.Fsck.chunks > 10)

let test_empty_trees () =
  let store = Store.mem_store () in
  List.iter
    (fun (kind, root) ->
      match Fsck.check_tree ~cfg store ~kind root with
      | [] -> ()
      | vs -> Alcotest.fail ("empty tree: " ^ violations_str vs))
    [
      (Value.Kblob, Fbtypes.Fblob.root (Fbtypes.Fblob.empty store cfg));
      (Value.Klist, Flist.root (Flist.empty store cfg));
      (Value.Kmap, Fmap.root (Fmap.empty store cfg));
      (Value.Kset, Fbtypes.Fset.root (Fbtypes.Fset.empty store cfg));
    ]

let test_missing_root () =
  let store = Store.mem_store () in
  match Fsck.check_tree ~cfg store ~kind:Value.Kmap (Cid.digest "nowhere") with
  | [ Fsck.Missing_chunk _ ] -> ()
  | vs -> Alcotest.fail ("expected one Missing_chunk, got: " ^ violations_str vs)

let test_undecodable_root () =
  let store = Store.mem_store () in
  let root = store.Store.put (Chunk.v Chunk.Map "\xff\xff\xff\xff\xff") in
  match Fsck.check_tree ~cfg store ~kind:Value.Kmap root with
  | [ Fsck.Undecodable _ ] -> ()
  | vs -> Alcotest.fail ("expected one Undecodable, got: " ^ violations_str vs)

let test_unsorted_leaf () =
  let store = Store.mem_store () in
  let buf = Buffer.create 32 in
  Codec.varint buf 2;
  Codec.string buf "b";
  Codec.string buf "1";
  Codec.string buf "a";
  Codec.string buf "2";
  let root = store.Store.put (Chunk.v Chunk.Map (Buffer.contents buf)) in
  let vs = Fsck.check_tree ~cfg store ~kind:Value.Kmap root in
  if not (List.exists (function Fsck.Order_violation _ -> true | _ -> false) vs)
  then Alcotest.fail ("expected an Order_violation, got: " ^ violations_str vs)

let test_bad_index_claims () =
  let store = Store.mem_store () in
  let m = Fmap.create store cfg [ ("a", "1"); ("b", "2"); ("c", "3") ] in
  Alcotest.(check int) "fixture fits one leaf" 1 (Fmap.chunk_count m);
  let buf = Buffer.create 64 in
  Codec.varint buf 1;
  Codec.raw buf (Cid.to_raw (Fmap.root m));
  Codec.varint buf 4 (* leaf holds 3 elements; claim one more *);
  Codec.varint buf 3;
  Codec.string buf "c";
  let root = store.Store.put (Chunk.v Chunk.SIndex (Buffer.contents buf)) in
  let vs = Fsck.check_tree ~cfg store ~kind:Value.Kmap root in
  if not (List.exists (function Fsck.Structure _ -> true | _ -> false) vs) then
    Alcotest.fail ("expected a Structure violation, got: " ^ violations_str vs)

let test_oversized_leaf () =
  let store = Store.mem_store () in
  let buf = Buffer.create 4096 in
  Codec.varint buf 300;
  for i = 0 to 299 do
    Codec.string buf (Printf.sprintf "k%03d" i);
    Codec.string buf (Printf.sprintf "value-%03d" i)
  done;
  let root = store.Store.put (Chunk.v Chunk.Map (Buffer.contents buf)) in
  let vs = Fsck.check_tree ~cfg:cfg6 store ~kind:Value.Kmap root in
  if not (List.exists (function Fsck.Split_violation _ -> true | _ -> false) vs)
  then Alcotest.fail ("expected a Split_violation, got: " ^ violations_str vs)

let test_swapped_chunk () =
  let store, _removed, swapped = override_store () in
  let db = build_rich_db store in
  let root = tree_root_of db ~key:"map" in
  Cid.Tbl.replace swapped root (Chunk.v Chunk.Blob "not the real node");
  let r = Fsck.check_db db in
  Alcotest.(check bool) "tamper detected" false (Fsck.ok r);
  List.iter
    (fun v ->
      match Fsck.violation_cid v with
      | Some c when Cid.equal c root -> ()
      | _ ->
          Alcotest.fail
            ("violation does not cite the swapped cid: "
            ^ Fsck.violation_to_string v))
    r.Fsck.violations;
  if
    not
      (List.exists
         (function Fsck.Hash_mismatch _ -> true | _ -> false)
         r.Fsck.violations)
  then
    Alcotest.fail ("expected Hash_mismatch, got: " ^ violations_str r.Fsck.violations)

let test_removed_chunk () =
  let store, removed, _swapped = override_store () in
  let db = build_rich_db store in
  let root = tree_root_of db ~key:"list" in
  Cid.Tbl.replace removed root ();
  let r = Fsck.check_db db in
  Alcotest.(check bool) "loss detected" false (Fsck.ok r);
  List.iter
    (fun v ->
      match Fsck.violation_cid v with
      | Some c when Cid.equal c root -> ()
      | _ ->
          Alcotest.fail
            ("violation does not cite the removed cid: "
            ^ Fsck.violation_to_string v))
    r.Fsck.violations

let test_bad_fobject () =
  let store = Store.mem_store () in
  let db = Db.create ~cfg store in
  let (_ : Cid.t) = Db.put db ~key:"k" ~context:"seed" (Db.str "v") in
  (* a version whose key and depth both lie *)
  let buf = Buffer.create 8 in
  Fbtypes.Prim.encode buf (Fbtypes.Prim.Str "forged");
  let forged =
    Fobject.v ~kind:Value.Kprim ~key:"other" ~data:(Buffer.contents buf)
      ~depth:5 ~bases:[] ~context:"forged"
  in
  let uid = Fobject.store store forged in
  (match Db.fork_at db ~key:"k" ~version:uid ~new_branch:"bad" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Db.error_to_string e));
  let r = Fsck.check_db db in
  Alcotest.(check bool) "forged head detected" false (Fsck.ok r);
  if
    not
      (List.exists
         (function Fsck.Structure _ -> true | _ -> false)
         r.Fsck.violations)
  then
    Alcotest.fail
      ("expected Structure violations, got: " ^ violations_str r.Fsck.violations)

let test_degenerate_config () =
  (* every element larger than the leaf target: one element per leaf *)
  let store = Store.mem_store () in
  let tiny = Fbtree.Tree_config.with_leaf_bits 4 in
  let elems = List.init 40 (fun i -> String.make 100 (Char.chr (65 + (i mod 26)))) in
  let l = Flist.create store tiny elems in
  Alcotest.(check bool) "multi-leaf" true (Flist.chunk_count l > 40);
  Alcotest.(check (list string)) "round-trip" elems (Flist.to_list l);
  match Fsck.check_tree ~cfg:tiny store ~kind:Value.Klist (Flist.root l) with
  | [] -> ()
  | vs -> Alcotest.fail ("degenerate config fsck: " ^ violations_str vs)

(* --- failpoints ----------------------------------------------------- *)

let some_chunk i = Chunk.v Chunk.Blob (Printf.sprintf "chunk %d" i)

let test_exact_fail_put () =
  let fp = Failpoint.exact ~fail_puts:[ 1 ] () in
  let store = Failpoint.store fp (Store.mem_store ()) in
  let (_ : Cid.t) = store.Store.put (some_chunk 0) in
  (match store.Store.put (some_chunk 1) with
  | exception Store.Injected_fault _ -> ()
  | _ -> Alcotest.fail "scheduled put fault did not fire");
  let (_ : Cid.t) = store.Store.put (some_chunk 2) in
  Alcotest.(check int) "one fault fired" 1 (Failpoint.injected fp);
  Failpoint.disarm fp;
  let fp2 = Failpoint.exact ~fail_puts:[ 0 ] () in
  Failpoint.disarm fp2;
  let store2 = Failpoint.store fp2 (Store.mem_store ()) in
  let (_ : Cid.t) = store2.Store.put (some_chunk 0) in
  Alcotest.(check int) "disarmed schedule passes through" 0 (Failpoint.injected fp2)

let test_drop_put_detected () =
  (* a lost write: the engine acknowledges a version whose meta chunk was
     never stored — reads surface a typed error and fsck pinpoints it *)
  let fp = Failpoint.exact ~drop_puts:[ 0 ] () in
  let store = Failpoint.store fp (Store.mem_store ()) in
  let db = Db.create ~cfg store in
  let uid = Db.put db ~key:"k" ~context:"lost" (Db.str "v") in
  (match Db.get db ~key:"k" with
  | Error (Db.Unknown_version u) ->
      Alcotest.(check bool) "the lost version" true (Cid.equal u uid)
  | Ok _ -> Alcotest.fail "read back a version whose chunk was dropped"
  | Error e -> Alcotest.fail ("unexpected error: " ^ Db.error_to_string e));
  let r = Fsck.check_db db in
  Alcotest.(check bool) "lost write detected" false (Fsck.ok r);
  List.iter
    (fun v ->
      match Fsck.violation_cid v with
      | Some c when Cid.equal c uid -> ()
      | _ ->
          Alcotest.fail
            ("violation does not cite the lost uid: " ^ Fsck.violation_to_string v))
    r.Fsck.violations

let test_corrupt_get_verifying () =
  let fp = Failpoint.exact ~corrupt_gets:[ (0, 3) ] () in
  let store = Store.verifying (Failpoint.store fp (Store.mem_store ())) in
  let cid = store.Store.put (Chunk.v Chunk.Blob "payload payload payload") in
  Alcotest.check_raises "bit rot caught by the verifying wrapper"
    (Store.Corrupt_chunk cid) (fun () -> ignore (store.Store.get cid))

let test_corrupt_get_fsck () =
  let base = Store.mem_store () in
  let m = Fmap.create base cfg (List.init 50 (fun i -> (Printf.sprintf "k%02d" i, "v"))) in
  let fp = Failpoint.exact ~corrupt_gets:[ (0, 7) ] () in
  let store = Failpoint.store fp base in
  match Fsck.check_tree ~cfg store ~kind:Value.Kmap (Fmap.root m) with
  | [ Fsck.Hash_mismatch { cid; _ } ] ->
      Alcotest.(check bool) "cites the corrupted root" true
        (Cid.equal cid (Fmap.root m))
  | vs -> Alcotest.fail ("expected one Hash_mismatch, got: " ^ violations_str vs)

let test_random_schedule_deterministic () =
  let run () =
    let fp = Failpoint.random ~seed:7L ~ops:100 ~put_fail:0.3 () in
    let store = Failpoint.store fp (Store.mem_store ()) in
    List.init 100 (fun i ->
        match store.Store.put (some_chunk i) with
        | (_ : Cid.t) -> false
        | exception Store.Injected_fault _ -> true)
  in
  let a = run () and b = run () in
  Alcotest.(check (list bool)) "same seed, same schedule" a b;
  Alcotest.(check bool) "schedule fired at 30%" true
    (let n = List.length (List.filter Fun.id a) in
     n > 10 && n < 60)

(* --- durable-store corruption --------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let flip_byte path off =
  let data = read_file path in
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
  seek_out oc off;
  output_char oc (Char.chr (Char.code data.[off] lxor 0x40));
  close_out oc

(* Absolute offset and length of the chunk-log record whose re-hashed body
   is [target]: records are varint length + encoded chunk. *)
let find_record path target =
  let data = read_file path in
  let r = Codec.reader data in
  let rec scan () =
    if Codec.at_end r then None
    else
      let len = Codec.read_varint r in
      let off = Codec.pos r in
      let body = Codec.read_raw r len in
      if Cid.equal (Cid.digest body) target then Some (off, len) else scan ()
  in
  scan ()

let small_durable_store dir =
  let p = Persist.open_db ~cfg dir in
  let db = Persist.db p in
  let (_ : Cid.t) = Db.put db ~key:"a" ~context:"c1" (Db.str "one") in
  let (_ : Cid.t) = Db.put db ~key:"a" ~context:"c2" (Db.str "two") in
  let rng = Splitmix.create 5L in
  let (_ : Cid.t) =
    Db.put db ~key:"b" ~context:"c3" (Db.blob db (Splitmix.bytes rng 2000))
  in
  let root = tree_root_of db ~key:"b" in
  Persist.close p;
  root

let test_corrupt_tag_byte () =
  Fbremote.Procs.with_temp_dir @@ fun dir ->
  let (_ : Cid.t) = small_durable_store dir in
  let log = Filename.concat dir "chunks.log" in
  (* first record: 1-byte varint header, then the tag byte *)
  let data = read_file log in
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 log in
  seek_out oc 1;
  output_char oc '\xee';
  close_out oc;
  ignore data;
  (match Persist.open_db ~cfg dir with
  | exception Persist.Corrupt_db (Persist.Bad_chunk_log _) -> ()
  | exception e ->
      Alcotest.fail ("expected Bad_chunk_log, got " ^ Printexc.to_string e)
  | p ->
      Persist.close p;
      Alcotest.fail "open_db accepted a rotten chunk record");
  (* fsck reports the same damage as a violation instead of raising *)
  let r = Fsck.check_dir ~cfg dir in
  Alcotest.(check bool) "fsck refuses" false (Fsck.ok r);
  match r.Fsck.violations with
  | [ Fsck.Bad_store _ ] -> ()
  | vs -> Alcotest.fail ("expected Bad_store, got: " ^ violations_str vs)

let test_corrupt_payload_byte () =
  Fbremote.Procs.with_temp_dir @@ fun dir ->
  let root = small_durable_store dir in
  let log = Filename.concat dir "chunks.log" in
  (match find_record log root with
  | None -> Alcotest.fail "tree root record not found in chunk log"
  | Some (off, len) ->
      Alcotest.(check bool) "record has a payload" true (len >= 2);
      flip_byte log (off + 1 + ((len - 1) / 2)));
  (* the store still opens: the rotten record re-hashes elsewhere and the
     journaled heads are intact — only fsck notices the loss *)
  let r = Fsck.check_dir ~cfg dir in
  Alcotest.(check bool) "fsck notices" false (Fsck.ok r);
  List.iter
    (fun v ->
      match Fsck.violation_cid v with
      | Some c when Cid.equal c root -> ()
      | _ ->
          Alcotest.fail
            ("violation does not cite the rotten cid: "
            ^ Fsck.violation_to_string v))
    r.Fsck.violations

let test_recovery_check_hook () =
  Fbremote.Procs.with_temp_dir @@ fun dir ->
  let root = small_durable_store dir in
  let verify db =
    let r = Fsck.check_db db in
    if not (Fsck.ok r) then failwith ("post-recovery fsck: " ^ report_str r)
  in
  (* clean store: the hook passes *)
  let p = Persist.open_db ~cfg ~recovery_check:verify dir in
  Persist.close p;
  (* corrupt a non-head tree chunk: plain open still succeeds (heads all
     resolve), but an fsck recovery_check refuses the store *)
  let log = Filename.concat dir "chunks.log" in
  (match find_record log root with
  | None -> Alcotest.fail "tree root record not found"
  | Some (off, len) -> flip_byte log (off + 1 + ((len - 1) / 2)));
  let p = Persist.open_db ~cfg dir in
  Persist.close p;
  match Persist.open_db ~cfg ~recovery_check:verify dir with
  | exception Failure _ -> ()
  | p ->
      Persist.close p;
      Alcotest.fail "recovery_check accepted a damaged store"

(* --- acceptance (ISSUE 3) ------------------------------------------- *)

let test_acceptance () =
  Fbremote.Procs.with_temp_dir @@ fun dir ->
  let seed = 0x5EED_ACCE_97L in
  let fp = Failpoint.random ~seed:77L ~ops:100_000 ~put_fail:0.01 () in
  let reopen () = Persist.open_db ~cfg ~wrap_store:(Failpoint.store fp) dir in
  let p = ref (reopen ()) in
  let d = Model_driver.create ~seed (Persist.db !p) in
  for _batch = 1 to 4 do
    let (_ : int) = Model_driver.run d ~fault_safe:true ~check_every:250 250 in
    Persist.crash !p;
    p := reopen ();
    Model_driver.set_db d (Persist.db !p);
    match Fbcheck.Model.check_against (Model_driver.model d) (Persist.db !p) with
    | [] -> ()
    | problems ->
        Alcotest.fail ("after recovery: " ^ String.concat "; " problems)
  done;
  Alcotest.(check bool) "the schedule did inject faults" true
    (Failpoint.injected fp > 0);
  Failpoint.disarm fp;
  (* pick a victim before closing: some head's POS-Tree root *)
  let db = Persist.db !p in
  let victim =
    List.find_map
      (fun key ->
        List.find_map
          (fun (_, uid) ->
            match Db.get_object db uid with
            | Ok obj when String.length obj.Fobject.data = 32 ->
                Some (Cid.of_raw obj.Fobject.data)
            | _ -> None)
          (Db.list_tagged_branches db ~key))
      (Db.list_keys db)
  in
  Persist.close !p;
  (* criterion 1: a store mutated by 1,000 random model-driven ops, with
     faults injected and recovered, fscks with zero violations *)
  let r = Fsck.check_dir ~cfg dir in
  check_clean "acceptance store" r;
  Alcotest.(check bool) "walked real state" true
    (r.Fsck.keys > 0 && r.Fsck.versions > 50 && r.Fsck.chunks > 100);
  (* criterion 2: corrupt one byte of one chunk record; fsck must report
     exactly that cid *)
  let victim =
    match victim with
    | Some c -> c
    | None -> Alcotest.fail "workload produced no tree-valued head"
  in
  let log = Filename.concat dir "chunks.log" in
  (match find_record log victim with
  | None -> Alcotest.fail "victim record not found in chunk log"
  | Some (off, len) -> flip_byte log (off + 1 + ((len - 1) / 2)));
  let r = Fsck.check_dir ~cfg dir in
  Alcotest.(check bool) "single flipped byte detected" false (Fsck.ok r);
  Alcotest.(check bool) "at least one violation" true (r.Fsck.violations <> []);
  List.iter
    (fun v ->
      match Fsck.violation_cid v with
      | Some c when Cid.equal c victim -> ()
      | _ ->
          Alcotest.fail
            ("violation does not cite the corrupted cid: "
            ^ Fsck.violation_to_string v))
    r.Fsck.violations

let () =
  Alcotest.run "check"
    [
      ( "fsck",
        [
          Alcotest.test_case "clean db of every kind" `Quick test_clean_db;
          Alcotest.test_case "empty trees" `Quick test_empty_trees;
          Alcotest.test_case "missing root" `Quick test_missing_root;
          Alcotest.test_case "undecodable root" `Quick test_undecodable_root;
          Alcotest.test_case "unsorted leaf" `Quick test_unsorted_leaf;
          Alcotest.test_case "index claims disagree with leaf" `Quick
            test_bad_index_claims;
          Alcotest.test_case "oversized leaf breaks the split pattern" `Quick
            test_oversized_leaf;
          Alcotest.test_case "swapped chunk cites its cid" `Quick
            test_swapped_chunk;
          Alcotest.test_case "removed chunk cites its cid" `Quick
            test_removed_chunk;
          Alcotest.test_case "forged fobject head" `Quick test_bad_fobject;
          Alcotest.test_case "degenerate config: element larger than leaf"
            `Quick test_degenerate_config;
        ] );
      ( "failpoint",
        [
          Alcotest.test_case "exact put fault fires once" `Quick
            test_exact_fail_put;
          Alcotest.test_case "dropped put is a detected lost write" `Quick
            test_drop_put_detected;
          Alcotest.test_case "corrupt get caught by verifying store" `Quick
            test_corrupt_get_verifying;
          Alcotest.test_case "corrupt get caught by fsck" `Quick
            test_corrupt_get_fsck;
          Alcotest.test_case "random schedule is seed-deterministic" `Quick
            test_random_schedule_deterministic;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "rotten tag byte: typed refusal" `Quick
            test_corrupt_tag_byte;
          Alcotest.test_case "rotten payload byte: fsck pinpoints the cid"
            `Quick test_corrupt_payload_byte;
          Alcotest.test_case "recovery_check hook vetoes damaged stores" `Quick
            test_recovery_check_hook;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case
            "1000 faulted ops fsck clean; one flipped byte is pinpointed"
            `Slow test_acceptance;
        ] );
    ]
