(* Built-in data types: primitives, Blob, List, Map, Set, Value payloads. *)

module Store = Fbchunk.Chunk_store
module Prim = Fbtypes.Prim
module Fblob = Fbtypes.Fblob
module Flist = Fbtypes.Flist
module Fmap = Fbtypes.Fmap
module Fset = Fbtypes.Fset
module Value = Fbtypes.Value

let cfg = Fbtree.Tree_config.with_leaf_bits 8
let fresh () = Store.mem_store ()

(* --- primitives --- *)

let prim_roundtrip p =
  let buf = Buffer.create 32 in
  Prim.encode buf p;
  let r = Fbutil.Codec.reader (Buffer.contents buf) in
  let p' = Prim.decode r in
  Fbutil.Codec.expect_end r;
  Prim.equal p p'

let qcheck_prim_roundtrip =
  QCheck.Test.make ~name:"prim encode/decode round-trip" ~count:300
    QCheck.(
      oneof
        [
          map (fun s -> Prim.Str s) string;
          map (fun i -> Prim.Int i) int64;
          map (fun l -> Prim.Tuple l) (list small_string);
        ])
    prim_roundtrip

let test_prim_ops () =
  Alcotest.(check bool) "append str" true
    (Prim.equal (Prim.append (Prim.Str "ab") "cd") (Prim.Str "abcd"));
  Alcotest.(check bool) "append tuple" true
    (Prim.equal (Prim.append (Prim.Tuple [ "a" ]) "b") (Prim.Tuple [ "a"; "b" ]));
  Alcotest.(check bool) "insert str" true
    (Prim.equal (Prim.insert (Prim.Str "ad") 1 "bc") (Prim.Str "abcd"));
  Alcotest.(check bool) "insert tuple" true
    (Prim.equal
       (Prim.insert (Prim.Tuple [ "a"; "c" ]) 1 "b")
       (Prim.Tuple [ "a"; "b"; "c" ]));
  Alcotest.(check bool) "add" true
    (Prim.equal (Prim.add (Prim.Int 40L) 2L) (Prim.Int 42L));
  Alcotest.(check bool) "multiply" true
    (Prim.equal (Prim.multiply (Prim.Int 6L) 7L) (Prim.Int 42L));
  (match Prim.add (Prim.Str "x") 1L with
  | exception Prim.Type_mismatch _ -> ()
  | _ -> Alcotest.fail "add on Str should fail");
  match Prim.append (Prim.Int 1L) "x" with
  | exception Prim.Type_mismatch _ -> ()
  | _ -> Alcotest.fail "append on Int should fail"

(* --- blob --- *)

let test_blob_basic () =
  let store = fresh () in
  let b = Fblob.create store cfg "hello forkbase blob" in
  Alcotest.(check int) "length" 19 (Fblob.length b);
  Alcotest.(check string) "read" "forkbase" (Fblob.read b ~pos:6 ~len:8);
  Alcotest.(check string) "to_string" "hello forkbase blob" (Fblob.to_string b)

let test_blob_paper_example () =
  (* The Figure 4 workflow: remove 10 bytes from the beginning, append. *)
  let store = fresh () in
  let b = Fblob.create store cfg "0123456789my value" in
  let b = Fblob.remove b ~pos:0 ~len:10 in
  let b = Fblob.append b "some more" in
  Alcotest.(check string) "edited" "my valuesome more" (Fblob.to_string b)

(* Blob's element, fed one byte at a time through the generic chunker. *)
module Byte_tree = Fbtree.Pos_tree.Make (struct
  type t = char

  let encode = Buffer.add_char
  let decode = Fbutil.Codec.read_byte
  let key _ = ""
  let sorted = false
  let leaf_tag = Fbchunk.Chunk.Blob
  let index_tag = Fbchunk.Chunk.UIndex
end)

let qcheck_blob_bulk_build =
  QCheck.Test.make ~name:"blob bulk build = per-byte build (same root)" ~count:60
    QCheck.(string_of_size (QCheck.Gen.int_range 0 20_000))
    (fun s ->
      let store = fresh () in
      let bulk = Fblob.create store cfg s in
      (* the generic chunker over the same one-byte elements *)
      let elementwise = Byte_tree.of_list store cfg (List.of_seq (String.to_seq s)) in
      Fbchunk.Cid.equal (Fblob.root bulk) (Byte_tree.root elementwise))

let qcheck_blob_splice =
  QCheck.Test.make ~name:"blob splice matches string model" ~count:100
    QCheck.(
      quad (string_of_size (QCheck.Gen.int_range 0 3000)) small_nat small_nat
        small_string)
    (fun (s, pos, del, ins) ->
      let n = String.length s in
      let pos = if n = 0 then 0 else pos mod (n + 1) in
      let del = min del (n - pos) in
      let store = fresh () in
      let b = Fblob.create store cfg s in
      let b' = Fblob.splice b ~pos ~del ~ins in
      let expected = String.sub s 0 pos ^ ins ^ String.sub s (pos + del) (n - pos - del) in
      Fblob.to_string b' = expected)

(* --- copy-on-write blob updates: rebase and byte splice --- *)

(* Small leaves and index nodes of ~4 entries, so a few KB already make a
   tree of 3-4 levels and every index level gets spliced. *)
let cfg_tall = { (Fbtree.Tree_config.with_leaf_bits 7) with Fbtree.Tree_config.index_bits = 2 }

(* Leaf end offsets exactly as the bulk build cuts [s]. *)
let leaf_ends cfg s =
  let roll = Fbhash.Rolling.any cfg.Fbtree.Tree_config.rolling ~window:cfg.Fbtree.Tree_config.window in
  let rec go off acc =
    if off >= String.length s then List.rev acc
    else
      match
        Fbhash.Rolling.any_find_boundary roll s ~off ~chunk_size_before:0
          ~min_size:cfg.Fbtree.Tree_config.min_leaf_bytes
          ~max_size:cfg.Fbtree.Tree_config.max_leaf_bytes
          ~mask:((1 lsl cfg.Fbtree.Tree_config.leaf_bits) - 1)
      with
      | Some consumed ->
          Fbhash.Rolling.any_reset roll;
          go (off + consumed) ((off + consumed) :: acc)
      | None -> List.rev (String.length s :: acc)
  in
  go 0 []

(* One edit [(old, pos, del, ins)], drawn from the shapes copy-on-write has
   to get right. *)
let blob_edit_gen cfg =
  let open QCheck.Gen in
  let text lo hi = string_size ~gen:printable (int_range lo hi) in
  let edit_in s lo hi =
    (* pos in [lo, hi), a short delete and a short insert *)
    let* pos = int_range lo (max lo (hi - 1)) in
    let* del = int_range 0 (min 40 (String.length s - pos)) in
    let* ins = text 0 40 in
    return (s, pos, del, ins)
  in
  let max_leaf = cfg.Fbtree.Tree_config.max_leaf_bytes in
  frequency
    [
      (1, map (fun s -> ("", 0, 0, s)) (text 1 3000));
      (1, map (fun s -> (s, 0, String.length s, "")) (text 1 3000));
      (* appends rewrite the residual last leaf *)
      (2, map2 (fun s t -> (s, String.length s, 0, t)) (text 1 4000) (text 1 300));
      (* edits inside the first leaf *)
      ( 2,
        let* s = text 1 4000 in
        edit_in s 0 (List.hd (leaf_ends cfg s)) );
      (* edits straddling a leaf boundary *)
      ( 3,
        let* s = text 600 4000 in
        match List.rev (leaf_ends cfg s) with
        | _ :: (_ :: _ as inner) ->
            let* e = oneofl inner in
            let* before = int_range 1 (min 30 e) in
            let* after = int_range 1 (min 30 (String.length s - e)) in
            let* ins = text 0 60 in
            return (s, e - before, before + after, ins)
        | _ -> edit_in s 0 (String.length s) );
      (* inserts that push a leaf past max_leaf_bytes, with and without a
         content boundary inside *)
      ( 2,
        let* s = text 1 4000 in
        let* pos = int_range 0 (String.length s) in
        let* ins =
          oneof
            [ return (String.make (max_leaf + 100) 'z'); text max_leaf (2 * max_leaf) ]
        in
        return (s, pos, 0, ins) );
      (* wholly different content *)
      (1, map2 (fun s t -> (s, 0, String.length s, t)) (text 1 3000) (text 1 3000));
      (* anything else: a random edit anywhere *)
      ( 3,
        let* s = text 1 5000 in
        edit_in s 0 (String.length s + 1) );
    ]

let apply_edit (s, pos, del, ins) =
  String.sub s 0 pos ^ ins ^ String.sub s (pos + del) (String.length s - pos - del)

let print_edit (s, pos, del, ins) =
  Printf.sprintf "len=%d pos=%d del=%d ins=%d" (String.length s) pos del
    (String.length ins)

(* [got] is exactly the tree [create] builds from [expected], in a fresh
   store: same root cid, same shape, same bytes, and every chunk present
   in the store it was written to. *)
let same_as_create cfg got expected =
  let built = Fblob.create (fresh ()) cfg expected in
  Fbchunk.Cid.equal (Fblob.root got) (Fblob.root built)
  && Fblob.height got = Fblob.height built
  && Fblob.chunk_count got = Fblob.chunk_count built
  && Fblob.to_string got = expected
  && Fblob.verify got

let qcheck_blob_cow name update =
  List.map
    (fun (label, cfg) ->
      QCheck.Test.make ~name:(Printf.sprintf "%s (%s)" name label) ~count:150
        (QCheck.make ~print:print_edit (blob_edit_gen cfg))
        (fun ((s, _, _, _) as edit) ->
          let old = Fblob.create (fresh ()) cfg s in
          same_as_create cfg (update old edit) (apply_edit edit)))
    [ ("leaf_bits 8", cfg); ("tall tree", cfg_tall) ]

let qcheck_blob_rebase =
  qcheck_blob_cow "blob rebase = create (same root)" (fun old edit ->
      Fblob.rebase old (apply_edit edit))

let qcheck_blob_byte_splice =
  qcheck_blob_cow "blob byte splice = create (same root)"
    (fun old (_, pos, del, ins) -> Fblob.splice old ~pos ~del ~ins)

let test_blob_rebase_unchanged () =
  List.iter
    (fun s ->
      let store = fresh () in
      let old = Fblob.create store cfg_tall s in
      let puts = (store.Store.stats ()).Store.puts in
      let same = Fblob.rebase old s in
      Alcotest.(check bool) "the same tree comes back" true (same == old);
      Alcotest.(check int) "no store puts" puts (store.Store.stats ()).Store.puts)
    [ ""; "x"; Workload.Text_edit.initial_page ~seed:1L ~size:20_000 ]

(* Rebasing a long history edit by edit writes a handful of chunks per
   edit, never the whole blob. *)
let test_blob_rebase_locality () =
  let store = fresh () in
  let page = Workload.Text_edit.initial_page ~seed:2L ~size:200_000 in
  let full = Fblob.create (fresh ()) cfg page in
  let b = ref (Fblob.create store cfg page) and content = ref page in
  let rng = Fbutil.Splitmix.create 3L in
  for _ = 1 to 50 do
    let edit =
      Workload.Text_edit.random_edit rng ~page_len:(String.length !content)
        ~update_ratio:0.5 ~edit_size:100
    in
    content := Workload.Text_edit.apply !content edit;
    let puts = (store.Store.stats ()).Store.puts in
    b := Fblob.rebase !b !content;
    let written = (store.Store.stats ()).Store.puts - puts in
    Alcotest.(check bool)
      (Printf.sprintf "%d puts for a 100 B edit of a %d-chunk blob" written
         (Fblob.chunk_count full))
      true
      (written <= 4 * Fblob.height !b)
  done;
  Alcotest.(check bool) "history ends where a fresh build does" true
    (Fbchunk.Cid.equal (Fblob.root !b) (Fblob.root (Fblob.create (fresh ()) cfg !content)))

let test_blob_dedup_versions () =
  let store = fresh () in
  let page = String.init 15_000 (fun i -> Char.chr (65 + ((i * 7) mod 26))) in
  let v1 = Fblob.create store cfg page in
  let bytes_v1 = (store.Store.stats ()).Store.bytes in
  (* 20 successive small edits: storage should grow far slower than
     20 × page size thanks to chunk sharing. *)
  let b = ref v1 in
  for i = 1 to 20 do
    b := Fblob.overwrite !b ~pos:(i * 300) (Printf.sprintf "EDIT%04d" i)
  done;
  let bytes_total = (store.Store.stats ()).Store.bytes in
  let growth = bytes_total - bytes_v1 in
  Alcotest.(check bool)
    (Printf.sprintf "dedup keeps growth small (%d bytes for 20 versions)" growth)
    true
    (growth < 6 * 15_000)

(* --- list --- *)

let test_list_ops () =
  let store = fresh () in
  let l = Flist.create store cfg [ "a"; "b"; "c" ] in
  let l = Flist.push_back l "d" in
  let l = Flist.insert l ~pos:0 [ "z" ] in
  let l = Flist.set l 2 "B" in
  Alcotest.(check (list string)) "ops" [ "z"; "a"; "B"; "c"; "d" ] (Flist.to_list l);
  let l = Flist.remove l ~pos:1 ~len:2 in
  Alcotest.(check (list string)) "remove" [ "z"; "c"; "d" ] (Flist.to_list l);
  Alcotest.(check string) "get" "c" (Flist.get l 1)

let test_list_empty_elements () =
  let store = fresh () in
  let l = Flist.create store cfg [ ""; "x"; ""; "" ] in
  Alcotest.(check (list string)) "empty elems survive" [ ""; "x"; ""; "" ]
    (Flist.to_list l)

(* --- map --- *)

let test_map_ops () =
  let store = fresh () in
  let m = Fmap.create store cfg [ ("b", "2"); ("a", "1"); ("c", "3") ] in
  Alcotest.(check (option string)) "find" (Some "2") (Fmap.find m "b");
  Alcotest.(check bool) "mem" true (Fmap.mem m "a");
  Alcotest.(check bool) "not mem" false (Fmap.mem m "z");
  let m = Fmap.set m "b" "22" in
  let m = Fmap.remove m "a" in
  Alcotest.(check (list (pair string string)))
    "bindings sorted" [ ("b", "22"); ("c", "3") ] (Fmap.bindings m);
  Alcotest.(check int) "cardinal" 2 (Fmap.cardinal m)

let test_map_last_wins () =
  let store = fresh () in
  let m = Fmap.create store cfg [ ("k", "first"); ("k", "second") ] in
  Alcotest.(check (option string)) "duplicate keys: last wins" (Some "second")
    (Fmap.find m "k")

let test_map_diff () =
  let store = fresh () in
  let kvs = List.init 500 (fun i -> (Printf.sprintf "key%04d" i, "v")) in
  let m1 = Fmap.create store cfg kvs in
  let m2 = Fmap.set m1 "key0100" "changed" in
  let m2 = Fmap.remove m2 "key0200" in
  let m2 = Fmap.set m2 "newkey" "added" in
  let d = Fmap.diff m1 m2 in
  Alcotest.(check int) "three differences" 3 (List.length d);
  List.iter
    (fun (k, change) ->
      match (k, change) with
      | "key0100", `Changed ("v", "changed") -> ()
      | "key0200", `Left "v" -> ()
      | "newkey", `Right "added" -> ()
      | k, _ -> Alcotest.fail ("unexpected diff entry " ^ k))
    d;
  Alcotest.(check (list (pair string string)))
    "diff of equal maps is empty" []
    (List.map (fun (k, _) -> (k, "")) (Fmap.diff m1 m1))

let test_map_equal_independent_of_insertion_order () =
  let store = fresh () in
  let kvs = List.init 300 (fun i -> (Printf.sprintf "key%04d" i, string_of_int i)) in
  let m1 = Fmap.create store cfg kvs in
  let m2 = Fmap.create store cfg (List.rev kvs) in
  let m3 =
    List.fold_left (fun m (k, v) -> Fmap.set m k v) (Fmap.empty store cfg) kvs
  in
  Alcotest.(check bool) "reverse insertion" true (Fmap.equal m1 m2);
  Alcotest.(check bool) "one-by-one insertion" true (Fmap.equal m1 m3)

(* --- set --- *)

let test_set_ops () =
  let store = fresh () in
  let s = Fset.create store cfg [ "b"; "a"; "b"; "c" ] in
  Alcotest.(check (list string)) "dedup + sorted" [ "a"; "b"; "c" ] (Fset.elements s);
  let s = Fset.add s "d" in
  let s = Fset.remove s "a" in
  Alcotest.(check bool) "mem" true (Fset.mem s "d");
  Alcotest.(check bool) "removed" false (Fset.mem s "a");
  let s2 = Fset.create store cfg [ "b"; "c"; "d" ] in
  Alcotest.(check bool) "equal" true (Fset.equal s s2)

let test_set_diff () =
  let store = fresh () in
  let s1 = Fset.create store cfg [ "a"; "b"; "c" ] in
  let s2 = Fset.create store cfg [ "b"; "c"; "d" ] in
  match Fset.diff s1 s2 with
  | [ `Left "a"; `Right "d" ] -> ()
  | _ -> Alcotest.fail "unexpected set diff"

(* --- iterator order stability ---
   Sorted containers promise key order from every traversal entry point,
   independent of insertion order, edits, or node boundaries (the 180
   elements below span several leaves under this config). *)

let shuffled n =
  let rng = Fbutil.Splitmix.create 0x0DDE4L in
  let a = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Fbutil.Splitmix.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let test_map_iter_order () =
  let store = fresh () in
  let n = 180 in
  let m =
    List.fold_left
      (fun m i -> Fmap.set m (Printf.sprintf "k%04d" i) (string_of_int i))
      (Fmap.empty store cfg) (shuffled n)
  in
  let expected = List.init n (fun i -> (Printf.sprintf "k%04d" i, string_of_int i)) in
  Alcotest.(check (list (pair string string))) "bindings sorted" expected
    (Fmap.bindings m);
  Alcotest.(check (list (pair string string))) "to_seq = bindings" expected
    (List.of_seq (Fmap.to_seq m));
  Alcotest.(check (list (pair string string)))
    "fold visits in key order" expected
    (List.rev (Fmap.fold (fun acc k v -> (k, v) :: acc) [] m));
  let expect_from k = List.filter (fun (k', _) -> k' >= k) expected in
  List.iter
    (fun k ->
      Alcotest.(check (list (pair string string)))
        ("to_seq_from " ^ k) (expect_from k)
        (List.of_seq (Fmap.to_seq_from m k)))
    [ "k0000"; "k0091"; "k0091a" (* between keys *); "k0179"; "zzz" ];
  (* edits must not disturb the order of untouched bindings *)
  let m = Fmap.remove (Fmap.set m "k0090" "changed") "k0091" in
  let expected =
    List.filter_map
      (fun (k, v) ->
        if k = "k0091" then None
        else if k = "k0090" then Some (k, "changed")
        else Some (k, v))
      expected
  in
  Alcotest.(check (list (pair string string))) "order stable after edits"
    expected (Fmap.bindings m)

let test_set_iter_order () =
  let store = fresh () in
  let n = 180 in
  let s =
    List.fold_left
      (fun s i -> Fset.add s (Printf.sprintf "e%04d" i))
      (Fset.empty store cfg) (shuffled n)
  in
  let expected = List.init n (Printf.sprintf "e%04d") in
  Alcotest.(check (list string)) "elements sorted" expected (Fset.elements s);
  Alcotest.(check (list string)) "to_seq = elements" expected
    (List.of_seq (Fset.to_seq s));
  List.iter
    (fun k ->
      Alcotest.(check (list string))
        ("to_seq_from " ^ k)
        (List.filter (fun e -> e >= k) expected)
        (List.of_seq (Fset.to_seq_from s k)))
    [ "e0000"; "e0101"; "e0101a"; "e0179"; "zzz" ];
  (* insertion order must not matter: same elements, same traversal *)
  let s2 = Fset.create store cfg expected in
  Alcotest.(check bool) "root independent of insertion order" true
    (Fbchunk.Cid.equal (Fset.root s) (Fset.root s2));
  Alcotest.(check (list string)) "rebuilt traversal identical" expected
    (List.of_seq (Fset.to_seq s2))

(* --- value payload round-trip --- *)

let test_value_roundtrip () =
  let store = fresh () in
  let values =
    [
      Value.Prim (Prim.Str "hello");
      Value.Prim (Prim.Int 123L);
      Value.Prim (Prim.Tuple [ "a"; "b" ]);
      Value.Blob (Fblob.create store cfg (String.make 5000 'q'));
      Value.List (Flist.create store cfg [ "x"; "y" ]);
      Value.Map (Fmap.create store cfg [ ("k", "v") ]);
      Value.Set (Fset.create store cfg [ "m" ]);
    ]
  in
  List.iter
    (fun v ->
      let payload = Value.payload v in
      let v' = Value.of_payload store cfg (Value.kind v) payload in
      Alcotest.(check bool)
        ("roundtrip " ^ Value.kind_to_string (Value.kind v))
        true (Value.equal v v'))
    values

let test_value_kind_bytes () =
  List.iter
    (fun k ->
      Alcotest.(check bool) "kind byte roundtrip" true
        (Value.kind_of_byte (Value.kind_to_byte k) = k))
    [ Value.Kprim; Value.Kblob; Value.Klist; Value.Kmap; Value.Kset ]

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "types"
    [
      ( "prim",
        [ q qcheck_prim_roundtrip; Alcotest.test_case "operations" `Quick test_prim_ops ] );
      ( "blob",
        [
          Alcotest.test_case "basic" `Quick test_blob_basic;
          Alcotest.test_case "paper example (fig 4)" `Quick test_blob_paper_example;
          q qcheck_blob_bulk_build;
          q qcheck_blob_splice;
        ]
        @ List.map q (qcheck_blob_rebase @ qcheck_blob_byte_splice)
        @ [
          Alcotest.test_case "rebase of unchanged content writes nothing" `Quick
            test_blob_rebase_unchanged;
          Alcotest.test_case "rebase writes O(edit) chunks" `Quick
            test_blob_rebase_locality;
          Alcotest.test_case "version dedup" `Quick test_blob_dedup_versions;
        ] );
      ( "list",
        [
          Alcotest.test_case "operations" `Quick test_list_ops;
          Alcotest.test_case "empty elements" `Quick test_list_empty_elements;
        ] );
      ( "map",
        [
          Alcotest.test_case "operations" `Quick test_map_ops;
          Alcotest.test_case "last wins" `Quick test_map_last_wins;
          Alcotest.test_case "diff" `Quick test_map_diff;
          Alcotest.test_case "insertion-order independence" `Quick
            test_map_equal_independent_of_insertion_order;
          Alcotest.test_case "iterator order stability" `Quick
            test_map_iter_order;
        ] );
      ( "set",
        [
          Alcotest.test_case "operations" `Quick test_set_ops;
          Alcotest.test_case "diff" `Quick test_set_diff;
          Alcotest.test_case "iterator order stability" `Quick
            test_set_iter_order;
        ] );
      ( "value",
        [
          Alcotest.test_case "payload roundtrip" `Quick test_value_roundtrip;
          Alcotest.test_case "kind bytes" `Quick test_value_kind_bytes;
        ] );
    ]
