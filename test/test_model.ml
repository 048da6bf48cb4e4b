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
        ] );
      ( "postree",
        [
          suite "splice/diff round-trips (200 splices)" prop_splice;
          suite "sorted trees vs sorted models (200 ops)" prop_sorted;
        ] );
    ]
