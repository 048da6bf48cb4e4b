(* SHA-256 FIPS vectors, incremental-feed equivalence, and rolling-hash
   window semantics. *)

let sha_hex = Fbhash.Sha256.hex

let nist_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
       ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
    ("a", "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb");
    ( "The quick brown fox jumps over the lazy dog",
      "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592" );
  ]

let test_vectors () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) ("sha256 of " ^ String.escaped input) expected (sha_hex input))
    nist_vectors

let test_million_a () =
  Alcotest.(check string)
    "million a's"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (sha_hex (String.make 1_000_000 'a'))

let test_long_padding_boundaries () =
  (* Lengths straddling the 55/56/63/64-byte padding boundaries must all
     round-trip through the incremental API identically. *)
  for n = 50 to 70 do
    let s = String.init n (fun i -> Char.chr (i land 0xff)) in
    let ctx = Fbhash.Sha256.init () in
    String.iter (fun c -> Fbhash.Sha256.feed_string ctx (String.make 1 c)) s;
    Alcotest.(check string)
      (Printf.sprintf "byte-at-a-time len %d" n)
      (sha_hex s)
      (Fbutil.Hex.encode (Fbhash.Sha256.finalize ctx))
  done

let test_feed_offsets () =
  let s = "hello, forkbase world of chunks" in
  let ctx = Fbhash.Sha256.init () in
  Fbhash.Sha256.feed_string ctx ~off:0 ~len:5 s;
  Fbhash.Sha256.feed_string ctx ~off:5 s;
  Alcotest.(check string) "offset feed" (sha_hex s)
    (Fbutil.Hex.encode (Fbhash.Sha256.finalize ctx))

let qcheck_incremental =
  QCheck.Test.make ~name:"sha256 incremental split-points agree" ~count:200
    QCheck.(pair string small_nat)
    (fun (s, k) ->
      let k = if String.length s = 0 then 0 else k mod (String.length s + 1) in
      let ctx = Fbhash.Sha256.init () in
      Fbhash.Sha256.feed_string ctx ~off:0 ~len:k s;
      Fbhash.Sha256.feed_string ctx ~off:k s;
      Fbhash.Sha256.finalize ctx = Fbhash.Sha256.digest s)

(* Every split offset 0..130 over every input length up to 300 bytes: the
   split lands in the buffered head, on a block edge, or leaves whole
   blocks to compress straight from the source. *)
let test_split_feeds () =
  for n = 0 to 300 do
    let s = String.init n (fun i -> Char.chr ((i * 37 + n) land 0xff)) in
    let want = Fbhash.Sha256.digest s in
    for k = 0 to min 130 n do
      let ctx = Fbhash.Sha256.init () in
      Fbhash.Sha256.feed_string ctx ~len:k s;
      Fbhash.Sha256.feed_string ctx ~off:k s;
      if Fbhash.Sha256.finalize ctx <> want then
        Alcotest.failf "string feed split at %d of %d" k n;
      let ctx = Fbhash.Sha256.init () in
      let b = Bytes.of_string s in
      Fbhash.Sha256.feed_bytes ctx ~len:k b;
      Fbhash.Sha256.feed_bytes ctx ~off:k b;
      if Fbhash.Sha256.finalize ctx <> want then
        Alcotest.failf "bytes feed split at %d of %d" k n
    done
  done

let qcheck_bytes_feed =
  QCheck.Test.make ~name:"sha256 feed_bytes agrees with feed_string" ~count:100
    QCheck.string (fun s ->
      let ctx = Fbhash.Sha256.init () in
      Fbhash.Sha256.feed_bytes ctx (Bytes.of_string s);
      Fbhash.Sha256.finalize ctx = Fbhash.Sha256.digest s)

(* Rolling hashes: sliding property — the value after rolling a window of
   bytes equals the value computed fresh on just that window. *)

let window_equiv (type a) (module R : Fbhash.Rolling.S with type t = a) name =
  QCheck.Test.make
    ~name:(name ^ " value depends only on window contents")
    ~count:200
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 8 200)) (int_range 4 16))
    (fun (s, w) ->
      QCheck.assume (String.length s >= w);
      let t = R.create ~window:w in
      String.iter (R.roll t) s;
      let fresh = R.create ~window:w in
      let n = String.length s in
      for i = n - w to n - 1 do
        R.roll fresh s.[i]
      done;
      R.value t = R.value fresh)

let reset_equiv (type a) (module R : Fbhash.Rolling.S with type t = a) name =
  QCheck.Test.make ~name:(name ^ " reset forgets history") ~count:100
    QCheck.(pair small_string small_string)
    (fun (a, b) ->
      let w = 8 in
      let t = R.create ~window:w in
      String.iter (R.roll t) a;
      R.reset t;
      String.iter (R.roll t) b;
      let fresh = R.create ~window:w in
      String.iter (R.roll fresh) b;
      R.value t = R.value fresh)

let test_filled () =
  let t = Fbhash.Rolling.Cyclic.create ~window:4 in
  Alcotest.(check bool) "empty not filled" false (Fbhash.Rolling.Cyclic.filled t);
  String.iter (Fbhash.Rolling.Cyclic.roll t) "abc";
  Alcotest.(check bool) "3/4 not filled" false (Fbhash.Rolling.Cyclic.filled t);
  Fbhash.Rolling.Cyclic.roll t 'd';
  Alcotest.(check bool) "4/4 filled" true (Fbhash.Rolling.Cyclic.filled t)

let test_any_dispatch () =
  let check kind (module R : Fbhash.Rolling.S) =
    let a = Fbhash.Rolling.any kind ~window:6 in
    let d = R.create ~window:6 in
    String.iter
      (fun c ->
        Fbhash.Rolling.any_roll a c;
        R.roll d c)
      "rolling-hash-dispatch";
    Alcotest.(check int) "any matches direct" (R.value d) (Fbhash.Rolling.any_value a)
  in
  check Fbhash.Rolling.Cyclic_poly (module Fbhash.Rolling.Cyclic);
  check Fbhash.Rolling.Rabin_karp (module Fbhash.Rolling.Rabin);
  check Fbhash.Rolling.Moving_sum (module Fbhash.Rolling.Sum)

let feed_detect_equiv (type a) (module R : Fbhash.Rolling.S with type t = a) name =
  QCheck.Test.make
    ~name:(name ^ " feed_detect = per-byte roll loop")
    ~count:150
    QCheck.(triple (string_of_size (QCheck.Gen.int_bound 600)) (int_range 0 64) (int_range 0 8))
    (fun (s, min_size, mask_bits) ->
      let mask = (1 lsl mask_bits) - 1 in
      let fast = R.create ~window:16 in
      let fast_result =
        R.feed_detect fast s ~chunk_size_before:0 ~min_size ~mask
      in
      let slow = R.create ~window:16 in
      let detected = ref false in
      String.iteri
        (fun i c ->
          R.roll slow c;
          if i + 1 >= min_size && R.value slow land mask = 0 then detected := true)
        s;
      fast_result = !detected && R.value fast = R.value slow)

let find_boundary_equiv (type a) (module R : Fbhash.Rolling.S with type t = a) name =
  QCheck.Test.make
    ~name:(name ^ " find_boundary consistent with roll")
    ~count:150
    QCheck.(pair (string_of_size (QCheck.Gen.int_bound 2000)) (int_range 2 8))
    (fun (s, mask_bits) ->
      let mask = (1 lsl mask_bits) - 1 in
      let t = R.create ~window:16 in
      match
        R.find_boundary t s ~off:0 ~chunk_size_before:0 ~min_size:4 ~max_size:1024 ~mask
      with
      | None ->
          (* consumed everything without a boundary: string shorter than
             max and no pattern after min *)
          String.length s < 1024
      | Some consumed ->
          consumed >= 1 && consumed <= min (String.length s) 1024
          &&
          (* replaying the prefix must fire at exactly that position *)
          let r = R.create ~window:16 in
          let fired = ref None in
          String.iteri
            (fun i c ->
              if !fired = None && i < consumed then begin
                R.roll r c;
                if (i + 1 >= 4 && R.value r land mask = 0) || i + 1 >= 1024 then
                  fired := Some (i + 1)
              end)
            s;
          !fired = Some consumed)

let test_cyclic_distribution () =
  (* The low 12 bits of the cyclic hash over random data should hit the
     all-zero pattern roughly once per 4096 positions. *)
  let rng = Fbutil.Splitmix.create 42L in
  let t = Fbhash.Rolling.Cyclic.create ~window:32 in
  let n = 1_000_000 and hits = ref 0 in
  for _ = 1 to n do
    Fbhash.Rolling.Cyclic.roll t (Char.chr (Fbutil.Splitmix.int rng 256));
    if Fbhash.Rolling.Cyclic.value t land 0xfff = 0 then incr hits
  done;
  let expected = n / 4096 in
  Alcotest.(check bool)
    (Printf.sprintf "pattern rate %d within 2x of %d" !hits expected)
    true
    (!hits > expected / 2 && !hits < expected * 2)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "hash"
    [
      ( "sha256",
        [
          Alcotest.test_case "NIST vectors" `Quick test_vectors;
          Alcotest.test_case "one million a's" `Slow test_million_a;
          Alcotest.test_case "padding boundaries" `Quick test_long_padding_boundaries;
          Alcotest.test_case "feed with offsets" `Quick test_feed_offsets;
          Alcotest.test_case "split feeds = one-shot digest" `Quick test_split_feeds;
          q qcheck_incremental;
          q qcheck_bytes_feed;
        ] );
      ( "rolling",
        [
          q (window_equiv (module Fbhash.Rolling.Cyclic) "cyclic");
          q (window_equiv (module Fbhash.Rolling.Rabin) "rabin");
          q (window_equiv (module Fbhash.Rolling.Sum) "sum");
          q (feed_detect_equiv (module Fbhash.Rolling.Cyclic) "cyclic");
          q (feed_detect_equiv (module Fbhash.Rolling.Rabin) "rabin");
          q (feed_detect_equiv (module Fbhash.Rolling.Sum) "sum");
          q (find_boundary_equiv (module Fbhash.Rolling.Cyclic) "cyclic");
          q (find_boundary_equiv (module Fbhash.Rolling.Rabin) "rabin");
          q (reset_equiv (module Fbhash.Rolling.Cyclic) "cyclic");
          q (reset_equiv (module Fbhash.Rolling.Rabin) "rabin");
          q (reset_equiv (module Fbhash.Rolling.Sum) "sum");
          Alcotest.test_case "filled flag" `Quick test_filled;
          Alcotest.test_case "any dispatch" `Quick test_any_dispatch;
          Alcotest.test_case "cyclic pattern distribution" `Quick test_cyclic_distribution;
        ] );
    ]
