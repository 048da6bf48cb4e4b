(* Model-based differential suites (ISSUE 3): random operation sequences
   driven through the engine and the pure reference model in lockstep,
   diffing the full observable state after every step.

   Every trial is a pure function of one int64 seed.  On failure the seed
   is printed with replay instructions; setting FORKBASE_QCHECK_SEED pins
   the suites to exactly that one trial, and FORKBASE_QCHECK_COUNT scales
   the number of trials for CI soaks (default 10; `dune build @model`
   runs the suites with a fixed qcheck seed, see test/dune). *)

module Splitmix = Fbutil.Splitmix
module Cid = Fbchunk.Cid
module Db = Forkbase.Db
module Persist = Fbpersist.Persist
module Failpoint = Fbcheck.Failpoint
module Fsck = Fbcheck.Fsck
module Model = Fbcheck.Model
module Flist = Fbtypes.Flist
module Fmap = Fbtypes.Fmap
module Fset = Fbtypes.Fset
module Fblob = Fbtypes.Fblob
module Merge = Forkbase.Merge

let trial_count default =
  match Sys.getenv_opt "FORKBASE_QCHECK_COUNT" with
  | Some s -> ( try int_of_string s with _ -> default)
  | None -> default

let pinned_seed =
  match Sys.getenv_opt "FORKBASE_QCHECK_SEED" with
  | Some s -> ( try Some (Int64.of_string s) with _ -> None)
  | None -> None

(* Each suite is one property over a trial seed: either a qcheck test
   drawing seeds (the counterexample IS the replay seed), or — when
   FORKBASE_QCHECK_SEED is set — a single alcotest case at that seed. *)
let suite name prop =
  match pinned_seed with
  | Some s ->
      Alcotest.test_case
        (Printf.sprintf "%s @ pinned seed %Ld" name s)
        `Quick
        (fun () -> prop s)
  | None ->
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~name ~count:(trial_count 10) QCheck.int64 (fun s ->
             (try prop s
              with e ->
                QCheck.Test.fail_reportf
                  "trial seed %Ld (replay: FORKBASE_QCHECK_SEED=%Ld dune \
                   runtest test): %s"
                  s s (Printexc.to_string e));
             true))

let cfg = Fbtree.Tree_config.with_leaf_bits 7

(* --- db vs model, in-memory store ---------------------------------- *)

let prop_mem seed =
  let db = Db.create ~cfg (Fbchunk.Chunk_store.mem_store ()) in
  let d = Model_driver.create ~seed db in
  let (_ : int) = Model_driver.run d ~check_every:1 250 in
  let report = Fsck.check_db db in
  if not (Fsck.ok report) then
    failwith (Format.asprintf "fsck after run: %a" Fsck.pp_report report)

(* --- closure walk vs the typed walk ----------------------------------- *)

(* The reference, independent of [Closure]'s edge decoding: load every
   version reachable from the heads, mark its meta chunk and, through
   [Fobject.value] and [iter_chunks], every chunk of its value tree. *)
let typed_walk db heads =
  let store = Db.store db and cfg = Db.cfg db in
  let marked = Cid.Tbl.create 256 in
  let mark cid = Cid.Tbl.replace marked cid () in
  let rec version uid =
    if not (Cid.Tbl.mem marked uid) then begin
      mark uid;
      match Forkbase.Fobject.load store uid with
      | None -> ()
      | Some obj ->
          (match Forkbase.Fobject.value store cfg obj with
          | Fbtypes.Value.Prim _ -> ()
          | Fbtypes.Value.Blob b -> Fbtypes.Fblob.iter_chunks b mark
          | Fbtypes.Value.List l -> Flist.iter_chunks l mark
          | Fbtypes.Value.Map m -> Fmap.iter_chunks m mark
          | Fbtypes.Value.Set s -> Fset.iter_chunks s mark);
          List.iter version obj.Forkbase.Fobject.bases
    end
  in
  List.iter version heads;
  marked

let sorted_hex tbl =
  List.sort compare (Cid.Tbl.fold (fun cid () acc -> Cid.to_hex cid :: acc) tbl [])

let prop_closure seed =
  let db = Db.create ~cfg (Fbchunk.Chunk_store.mem_store ()) in
  let d = Model_driver.create ~seed db in
  let (_ : int) = Model_driver.run d ~check_every:50 250 in
  let heads =
    List.concat_map
      (fun key ->
        List.map snd (Db.list_tagged_branches db ~key)
        @ Db.list_untagged_branches db ~key)
      (Db.list_keys db)
  in
  let store = Db.store db in
  let walked = Cid.Tbl.create 256 in
  let fetch cids =
    List.filter_map
      (fun cid ->
        Option.map
          (fun chunk ->
            if Cid.Tbl.mem walked cid then failwith "chunk visited twice";
            Cid.Tbl.replace walked cid ();
            (cid, chunk))
          (store.Fbchunk.Chunk_store.get cid))
      cids
  in
  if Forkbase.Closure.walk ~fetch heads <> [] then
    failwith "closure walk reports missing chunks in a complete store";
  let reference = sorted_hex (typed_walk db heads) in
  if sorted_hex walked <> reference then
    failwith
      (Printf.sprintf "closure walk visited %d cids, the typed walk %d"
         (Cid.Tbl.length walked) (List.length reference));
  (* A stingy peer: answers one chunk per call and never a chosen leaf.
     The walk must re-ask for everything else, give up on exactly that
     leaf, and still visit the rest of the closure. *)
  let hidden =
    Cid.Tbl.fold
      (fun cid () acc ->
        match (acc, store.Fbchunk.Chunk_store.get cid) with
        | None, Some chunk when Forkbase.Closure.children chunk = []
                                && chunk.Fbchunk.Chunk.tag <> Fbchunk.Chunk.Meta ->
            Some cid
        | _ -> acc)
      walked None
  in
  (match hidden with
  | None -> ()
  | Some hidden ->
      let stingy_seen = Cid.Tbl.create 256 in
      let stingy cids =
        match
          List.find_opt
            (fun cid -> (not (Cid.equal cid hidden)) && store.Fbchunk.Chunk_store.mem cid)
            cids
        with
        | None -> []
        | Some cid ->
            Cid.Tbl.replace stingy_seen cid ();
            [ (cid, Option.get (store.Fbchunk.Chunk_store.get cid)) ]
      in
      let missing = Forkbase.Closure.walk ~fetch:stingy heads in
      if List.map Cid.to_hex missing <> [ Cid.to_hex hidden ] then
        failwith "stingy walk: wrong cids given up";
      if Cid.Tbl.length stingy_seen <> List.length reference - 1 then
        failwith "stingy walk: closure not fully visited");
  let garbage, _ = Forkbase.Gc.garbage_stats db in
  let total = (store.Fbchunk.Chunk_store.stats ()).Fbchunk.Chunk_store.chunks in
  if garbage <> total - List.length reference then
    failwith
      (Printf.sprintf "gc counts %d garbage chunks, the typed walk %d" garbage
         (total - List.length reference))

(* --- db vs model, durable store with put faults and crashes -------- *)

let prop_persist seed =
  Fbremote.Procs.with_temp_dir @@ fun dir ->
  let fp = Failpoint.random ~seed:(Int64.lognot seed) ~ops:8000 ~put_fail:0.02 () in
  let reopen () = Persist.open_db ~cfg ~wrap_store:(Failpoint.store fp) dir in
  let p = ref (reopen ()) in
  Fun.protect ~finally:(fun () -> Persist.close !p) @@ fun () ->
  let d = Model_driver.create ~seed (Persist.db !p) in
  for _batch = 1 to 5 do
    let (_ : int) = Model_driver.run d ~fault_safe:true ~check_every:10 50 in
    (* SIGKILL-equivalent: acked operations must all survive recovery *)
    Persist.crash !p;
    p := reopen ();
    Model_driver.set_db d (Persist.db !p);
    match Model.check_against (Model_driver.model d) (Persist.db !p) with
    | [] -> ()
    | problems ->
        failwith ("after crash recovery: " ^ String.concat "; " problems)
  done;
  Failpoint.disarm fp;
  let report = Fsck.check_db (Persist.db !p) in
  if not (Fsck.ok report) then
    failwith
      (Format.asprintf "fsck after faulted run: %a" Fsck.pp_report report)

(* --- Pos_tree splice/diff round-trips ------------------------------ *)

let take n l = List.filteri (fun i _ -> i < n) l
let drop n l = List.filteri (fun i _ -> i >= n) l
let sub l pos len = take len (drop pos l)

let prop_splice seed =
  let rng = Splitmix.create seed in
  let store = Fbchunk.Chunk_store.mem_store () in
  let cfg = Fbtree.Tree_config.with_leaf_bits 6 in
  let model =
    ref (List.init (Splitmix.int rng 400) (fun _ -> Model_driver.gen_string rng))
  in
  let t = ref (Flist.create store cfg !model) in
  for step = 1 to 200 do
    let len = List.length !model in
    let pos = Splitmix.int rng (len + 1) in
    let del = min (len - pos) (Splitmix.int rng 21) in
    let ins =
      List.init (Splitmix.int rng 21) (fun _ -> Model_driver.gen_string rng)
    in
    let prev = !t and prev_model = !model in
    t := Flist.splice !t ~pos ~del ~ins;
    model := take pos prev_model @ ins @ drop (pos + del) prev_model;
    if Flist.to_list !t <> !model then
      failwith (Printf.sprintf "step %d: splice result diverges" step);
    (* history independence: rebuilding from scratch reaches the same root *)
    let fresh = Flist.create store cfg !model in
    if not (Cid.equal (Flist.root fresh) (Flist.root !t)) then
      failwith (Printf.sprintf "step %d: splice root != rebuilt root" step);
    (* diff round-trip: the reported region patches prev into current *)
    (match Flist.diff_region prev !t with
    | None ->
        if prev_model <> !model then
          failwith (Printf.sprintf "step %d: diff_region None on change" step)
    | Some ((p1, l1), (p2, l2)) ->
        let patched =
          take p1 prev_model @ sub !model p2 l2 @ drop (p1 + l1) prev_model
        in
        if patched <> !model then
          failwith (Printf.sprintf "step %d: diff_region does not patch" step));
    if step mod 20 = 0 then begin
      if Flist.to_list (Flist.of_root store cfg (Flist.root !t)) <> !model then
        failwith (Printf.sprintf "step %d: of_root round-trip" step);
      let report = Fsck.check_tree ~cfg store ~kind:Fbtypes.Value.Klist (Flist.root !t) in
      if report <> [] then
        failwith
          (Printf.sprintf "step %d: fsck: %s" step
             (String.concat "; " (List.map Fsck.violation_to_string report)))
    end
  done

(* --- positional diff and merge vs element-wise references ---------- *)

(* A blob or a list seen as an array of elements (a blob's are its
   bytes, one per element), so one generator and one reference serve
   both. *)
type 'c positional = {
  build : Fbchunk.Chunk_store.t -> string array -> 'c;
  root : 'c -> Cid.t;
  diff : 'c -> 'c -> ((int * int) * (int * int)) option;
  merge_by_ref : base:'c -> 'c -> 'c -> 'c option;
  value : 'c -> Fbtypes.Value.t;
  unwrap : Fbtypes.Value.t -> 'c;
  elems : 'c -> string array;
  (* how a conflict renders a slice, and reads a resolution back *)
  join : string array -> string;
  split : string -> string array;
  gen_elem : Splitmix.t -> string;
  max_len : int;  (* of a base: enough leaves for two index levels *)
}

let merge_cfg = Fbtree.Tree_config.with_leaf_bits 6

(* Merge's element separator and its split, for the reference. *)
let split_sep s = if s = "" then [||] else Array.of_list (String.split_on_char '\x1f' s)

let blob_kind =
  let bytes a = String.concat "" (Array.to_list a) in
  let of_bytes s = Array.init (String.length s) (fun i -> String.make 1 s.[i]) in
  {
    build = (fun store a -> Fblob.create store merge_cfg (bytes a));
    root = Fblob.root;
    diff = Fblob.diff_region;
    merge_by_ref = Fblob.merge_by_ref;
    value = (fun b -> Fbtypes.Value.Blob b);
    unwrap = (function Fbtypes.Value.Blob b -> b | v -> failwith (Fbtypes.Value.describe v));
    elems = (fun b -> of_bytes (Fblob.to_string b));
    join = bytes;
    (* a blob splices the resolution's pieces back together *)
    split = (fun s -> of_bytes (bytes (split_sep s)));
    (* a small alphabet half the time, so refinement meets long runs of
       equal bytes *)
    gen_elem =
      (fun rng ->
        String.make 1
          (if Splitmix.bool rng then "ab".[Splitmix.int rng 2] else Char.chr (Splitmix.int rng 256)));
    max_len = 6000;
  }

let list_kind =
  {
    build = (fun store a -> Flist.create store merge_cfg (Array.to_list a));
    root = Flist.root;
    diff = Flist.diff_region;
    merge_by_ref = Flist.merge_by_ref;
    value = (fun l -> Fbtypes.Value.List l);
    unwrap = (function Fbtypes.Value.List l -> l | v -> failwith (Fbtypes.Value.describe v));
    elems = (fun l -> Array.of_list (Flist.to_list l));
    join = (fun a -> String.concat "\x1f" (Array.to_list a));
    split = split_sep;
    gen_elem = (fun rng -> if Splitmix.int rng 4 = 0 then "x" else Model_driver.gen_string rng);
    max_len = 1500;
  }

(* Element counts of a tree's leaves, read from the chunks themselves. *)
let rec leaf_counts store cid =
  let chunk = Fbchunk.Chunk_store.get_exn store cid in
  match chunk.Fbchunk.Chunk.tag with
  | Fbchunk.Chunk.Blob | Fbchunk.Chunk.List ->
      [ (cid, Fbutil.Codec.read_varint (Fbutil.Codec.reader chunk.Fbchunk.Chunk.payload)) ]
  | _ -> List.concat_map (leaf_counts store) (Fbtree.Pos_tree.index_children chunk)

(* cum.(i) = elements before leaf i *)
let leaf_cum store root =
  let counts = List.map snd (leaf_counts store root) in
  Array.of_list (List.rev (List.fold_left (fun acc c -> (List.hd acc + c) :: acc) [ 0 ] counts))

(* The element-wise diff_region the trees used before per-leaf
   refinement: leaf-cid prefix and suffix, then one element at a time. *)
let reference_region store (r1, a1) (r2, a2) =
  if Cid.equal r1 r2 then None
  else begin
    let l1 = Array.of_list (leaf_counts store r1) and l2 = Array.of_list (leaf_counts store r2) in
    let n1 = Array.length l1 and n2 = Array.length l2 in
    let same i j = Cid.equal (fst l1.(i)) (fst l2.(j)) in
    let p = ref 0 in
    while !p < n1 && !p < n2 && same !p !p do
      incr p
    done;
    let s = ref 0 in
    while !s < n1 - !p && !s < n2 - !p && same (n1 - 1 - !s) (n2 - 1 - !s) do
      incr s
    done;
    let cum1 = leaf_cum store r1 and cum2 = leaf_cum store r2 in
    let start1 = ref cum1.(!p) and stop1 = ref cum1.(n1 - !s) in
    let start2 = ref cum2.(!p) and stop2 = ref cum2.(n2 - !s) in
    let eq i j = String.equal a1.(i) a2.(j) in
    while !start1 < !stop1 && !start2 < !stop2 && eq !start1 !start2 do
      incr start1;
      incr start2
    done;
    while !stop1 > !start1 && !stop2 > !start2 && eq (!stop1 - 1) (!stop2 - 1) do
      decr stop1;
      decr stop2
    done;
    Some ((!start1, !stop1 - !start1), (!start2, !stop2 - !start2))
  end

let splice_arr a ~pos ~del ~ins =
  Array.concat [ Array.sub a 0 pos; ins; Array.sub a (pos + del) (Array.length a - pos - del) ]

(* The two-splice region merge, on element arrays: [`Content] of the
   merged value, or the one conflict a [Manual] merge reports. *)
let reference_merge k store ~resolver (rb, b) (rl, l) (rr, r) =
  match (reference_region store (rb, b) (rl, l), reference_region store (rb, b) (rr, r)) with
  | None, None -> `Content b
  | Some _, None -> `Content l
  | None, Some _ -> `Content r
  | Some ((bl, bl_len), (ll, ll_len)), Some ((br, br_len), (rr, rr_len)) ->
      if bl + bl_len <= br || br + br_len <= bl then begin
        let left a = splice_arr a ~pos:bl ~del:bl_len ~ins:(Array.sub l ll ll_len) in
        let right a = splice_arr a ~pos:br ~del:br_len ~ins:(Array.sub r rr rr_len) in
        `Content
          (if bl > br || (bl = br && bl_len > br_len) then right (left b) else left (right b))
      end
      else begin
        let s = min bl br and e = max (bl + bl_len) (br + br_len) in
        let right_slice = Array.sub r s (e - s + (rr_len - br_len)) in
        let conflict =
          {
            Merge.location = Printf.sprintf "@pos:%d" s;
            base = Some (k.join (Array.sub b s (e - s)));
            left = Some (k.join (Array.sub l s (e - s + (ll_len - bl_len))));
            right = Some (k.join right_slice);
          }
        in
        match resolver with
        | Merge.Choose_right ->
            `Content (splice_arr b ~pos:s ~del:(e - s) ~ins:(k.split (k.join right_slice)))
        | _ -> `Conflict conflict
      end

let rand_elems k rng n = Array.init n (fun _ -> k.gen_elem rng)

(* A base: empty, a single leaf, content ending on a content-defined cut
   (so an append keeps every base leaf), or arbitrary content. *)
let gen_base k rng store =
  match Splitmix.int rng 6 with
  | 0 -> [||]
  | 1 -> rand_elems k rng (1 + Splitmix.int rng 6)
  | 2 ->
      let a = rand_elems k rng (Splitmix.int rng k.max_len) in
      let cum = leaf_cum store (k.root (k.build store a)) in
      let nl = Array.length cum - 1 in
      if nl < 2 then a else Array.sub a 0 cum.(1 + Splitmix.int rng (nl - 1))
  | _ -> rand_elems k rng (Splitmix.int rng k.max_len)

(* Elements that chunk as one whole leaf on their own: a copy of a base
   leaf that is not the last, or the first leaf of fresh content. *)
let whole_leaf k rng store ~cum a =
  let nl = Array.length cum - 1 in
  if nl >= 2 && Splitmix.bool rng then begin
    let i = Splitmix.int rng (nl - 1) in
    Array.sub a cum.(i) (cum.(i + 1) - cum.(i))
  end
  else begin
    let fresh = rand_elems k rng 600 in
    let fcum = leaf_cum store (k.root (k.build store fresh)) in
    Array.sub fresh 0 fcum.(1)
  end

(* One edit [(pos, del, ins)] whose changed base elements lie in
   [lo, hi]: a small splice, a whole-leaf insert at a base leaf boundary,
   or a whole-leaf delete. *)
let gen_edit k rng store ~cum a ~lo ~hi =
  let boundaries = List.filter (fun c -> c >= lo && c <= hi) (Array.to_list cum) in
  let leaves =
    List.filter
      (fun i -> cum.(i) >= lo && cum.(i + 1) <= hi && cum.(i + 1) > cum.(i))
      (List.init (Array.length cum - 1) Fun.id)
  in
  match Splitmix.int rng 4 with
  | 0 when boundaries <> [] ->
      let c = List.nth boundaries (Splitmix.int rng (List.length boundaries)) in
      (c, 0, whole_leaf k rng store ~cum a)
  | 1 when leaves <> [] ->
      let i = List.nth leaves (Splitmix.int rng (List.length leaves)) in
      (cum.(i), cum.(i + 1) - cum.(i), [||])
  | _ ->
      let pos = lo + Splitmix.int rng (hi - lo + 1) in
      let del = min (hi - pos) (Splitmix.int rng 9) in
      (pos, del, rand_elems k rng (if del = 0 then 1 + Splitmix.int rng 8 else Splitmix.int rng 9))

(* Apply non-overlapping edits in base coordinates, the last first. *)
let apply_edits a edits =
  List.fold_left
    (fun a (pos, del, ins) -> splice_arr a ~pos ~del ~ins)
    a
    (List.sort (fun (p1, _, _) (p2, _, _) -> compare p2 p1) edits)

(* One or two edits inside [lo, hi], in disjoint halves of it. *)
let gen_side k rng store ~cum a ~lo ~hi =
  if hi - lo >= 2 && Splitmix.bool rng then begin
    let mid = (lo + hi) / 2 in
    let e1 = gen_edit k rng store ~cum a ~lo ~hi:mid in
    let (p1, d1, _) = e1 in
    let lo2 = max (mid + 1) (p1 + d1 + 1) in
    if lo2 > hi then apply_edits a [ e1 ]
    else apply_edits a [ e1; gen_edit k rng store ~cum a ~lo:lo2 ~hi ]
  end
  else apply_edits a [ gen_edit k rng store ~cum a ~lo ~hi ]

(* Both sides of a three-way merge, from one of four scenarios. *)
let gen_sides k rng store ~cum b =
  let n = Array.length b in
  let swap (x, y) = if Splitmix.bool rng then (y, x) else (x, y) in
  let small_tail () =
    let del = min n (1 + Splitmix.int rng 4) in
    apply_edits b [ (n - del, del, rand_elems k rng (1 + Splitmix.int rng 4)) ]
  in
  let append () = apply_edits b [ (n, 0, rand_elems k rng (1 + Splitmix.int rng 200)) ] in
  match Splitmix.int rng 4 with
  | 0 ->
      (* one side below a cut point, the other above it *)
      let h = Splitmix.int rng (n + 1) in
      swap (gen_side k rng store ~cum b ~lo:0 ~hi:h, gen_side k rng store ~cum b ~lo:h ~hi:n)
  | 1 ->
      (* both insert at one base leaf boundary: whole leaves or bytes *)
      let c = cum.(Splitmix.int rng (Array.length cum)) in
      let ins () =
        if Splitmix.bool rng then whole_leaf k rng store ~cum b
        else rand_elems k rng (1 + Splitmix.int rng 8)
      in
      let l = apply_edits b [ (c, 0, ins ()) ] in
      (l, apply_edits b [ (c, 0, ins ()) ])
  | 2 ->
      (* the residual leaf: a tail edit against an append, or against a
         change elsewhere *)
      if n = 0 then (append (), append ())
      else if Splitmix.bool rng then swap (small_tail (), append ())
      else swap (small_tail (), gen_side k rng store ~cum b ~lo:0 ~hi:n)
  | _ -> (gen_side k rng store ~cum b ~lo:0 ~hi:n, gen_side k rng store ~cum b ~lo:0 ~hi:n)

let show_region = function
  | None -> "None"
  | Some ((p1, l1), (p2, l2)) -> Printf.sprintf "(%d,%d)/(%d,%d)" p1 l1 p2 l2

(* Every merge is checked three ways: [diff_region] against the
   element-wise reference on each pair, [Merge.merge_values] against the
   two-splice reference (same conflict, or the same root, which is also
   a fresh build's), and [merge_by_ref], when it applies, against that
   same root.  Returns how many merges went by reference. *)
let merge_trials k rng store ~trials =
  let by_ref = ref 0 in
  for trial = 1 to trials do
    let fail fmt = Printf.ksprintf (fun m -> failwith (Printf.sprintf "merge %d: %s" trial m)) fmt in
    let b = gen_base k rng store in
    let tb = k.build store b in
    let cum = leaf_cum store (k.root tb) in
    let l, r = gen_sides k rng store ~cum b in
    let tl = k.build store l and tr = k.build store r in
    let side t a = (k.root t, a) in
    List.iter
      (fun (name, (t1, a1), (t2, a2)) ->
        let got = k.diff t1 t2 and want = reference_region store (side t1 a1) (side t2 a2) in
        if got <> want then
          fail "diff_region %s = %s, reference %s" name (show_region got) (show_region want))
      [ ("base/left", (tb, b), (tl, l)); ("base/right", (tb, b), (tr, r));
        ("left/right", (tl, l), (tr, r)); ("left/base", (tl, l), (tb, b)) ];
    let resolver = if Splitmix.bool rng then Merge.Manual else Merge.Choose_right in
    let expected = reference_merge k store ~resolver (side tb b) (side tl l) (side tr r) in
    let fresh_root a = k.root (k.build (Fbchunk.Chunk_store.mem_store ()) a) in
    (match
       ( Merge.merge_values store merge_cfg ~resolver ~base:(Some (k.value tb))
           ~left:(k.value tl) ~right:(k.value tr),
         expected )
     with
    | Merge.Merged v, `Content want ->
        let m = k.unwrap v in
        if k.elems m <> want then fail "merged content differs from the reference";
        if not (Cid.equal (k.root m) (fresh_root want)) then
          fail "merged root is not the fresh build's (base/left/right %d/%d/%d elements)"
            (Array.length b) (Array.length l) (Array.length r)
    | Merge.Conflicts [ c ], `Conflict want ->
        if c <> want then fail "conflict differs from the reference"
    | Merge.Merged _, `Conflict _ -> fail "merged where the reference conflicts"
    | Merge.Conflicts _, _ -> fail "conflicts where the reference does not");
    match k.merge_by_ref ~base:tb tl tr with
    | None -> ()
    | Some m -> (
        incr by_ref;
        match expected with
        | `Content want ->
            if not (Cid.equal (k.root m) (fresh_root want)) then
              fail "merge_by_ref root is not the fresh build's"
        | `Conflict _ -> fail "merge_by_ref merged a conflict")
  done;
  !by_ref

let prop_positional_merge seed =
  let rng = Splitmix.create seed in
  let store = Fbchunk.Chunk_store.mem_store () in
  List.iter
    (fun (name, run) ->
      (* a trial whose merges never went by reference tests only half *)
      if run () = 0 then failwith (name ^ ": no merge went by reference"))
    [
      ("blob", fun () -> merge_trials blob_kind rng store ~trials:100);
      ("list", fun () -> merge_trials list_kind rng store ~trials:100);
    ]

(* --- sorted trees (Fmap/Fset) vs sorted-list models ---------------- *)

let prop_sorted seed =
  let rng = Splitmix.create seed in
  let store = Fbchunk.Chunk_store.mem_store () in
  let cfg = Fbtree.Tree_config.with_leaf_bits 6 in
  let pool = Array.init 60 (fun i -> Printf.sprintf "m%02d" i) in
  let sset = ref [] and fset = ref (Fset.empty store cfg) in
  let smap = ref [] and fmap = ref (Fmap.empty store cfg) in
  let snap_set = ref !fset and snap_sset = ref !sset in
  for step = 1 to 200 do
    let x = Model_driver.pick rng pool in
    (match Splitmix.int rng 4 with
    | 0 ->
        fset := Fset.add !fset x;
        sset := List.sort_uniq String.compare (x :: !sset)
    | 1 ->
        fset := Fset.remove !fset x;
        sset := List.filter (fun y -> y <> x) !sset
    | 2 ->
        let v = Model_driver.gen_string rng in
        fmap := Fmap.set !fmap x v;
        smap :=
          List.sort
            (fun (a, _) (b, _) -> String.compare a b)
            ((x, v) :: List.remove_assoc x !smap)
    | _ ->
        fmap := Fmap.remove !fmap x;
        smap := List.remove_assoc x !smap);
    if Fset.elements !fset <> !sset then
      failwith (Printf.sprintf "step %d: fset elements diverge" step);
    if Fmap.bindings !fmap <> !smap then
      failwith (Printf.sprintf "step %d: fmap bindings diverge" step);
    if step mod 10 = 0 then begin
      (* history independence for the sorted builders *)
      if not (Cid.equal (Fset.root (Fset.create store cfg !sset)) (Fset.root !fset))
      then failwith (Printf.sprintf "step %d: fset root != rebuilt root" step);
      if not (Cid.equal (Fmap.root (Fmap.create store cfg !smap)) (Fmap.root !fmap))
      then failwith (Printf.sprintf "step %d: fmap root != rebuilt root" step)
    end;
    if step mod 20 = 0 then begin
      (* diff_sorted vs the snapshot from 20 steps ago *)
      let expect =
        let left = List.filter (fun x -> not (List.mem x !sset)) !snap_sset in
        let right = List.filter (fun x -> not (List.mem x !snap_sset)) !sset in
        List.sort compare
          (List.map (fun x -> `Left x) left @ List.map (fun x -> `Right x) right)
      in
      if List.sort compare (Fset.diff !snap_set !fset) <> expect then
        failwith (Printf.sprintf "step %d: Fset.diff diverges from model" step);
      snap_set := !fset;
      snap_sset := !sset
    end
  done;
  if not (Fset.verify !fset) || not (Fmap.verify !fmap) then
    failwith "final tamper check failed"

let () =
  Alcotest.run "model"
    [
      ( "differential",
        [
          suite "db vs model (250 ops, mem store)" prop_mem;
          suite "db vs model (250 ops, durable, put faults + crashes)"
            prop_persist;
          suite "closure walk = typed walk from every head (250 ops)"
            prop_closure;
        ] );
      ( "postree",
        [
          suite "splice/diff round-trips (200 splices)" prop_splice;
          suite "sorted trees vs sorted models (200 ops)" prop_sorted;
          suite "blob/list diff and merge vs element-wise references (200 merges)"
            prop_positional_merge;
        ] );
    ]
