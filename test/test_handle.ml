(* The single access handle (Fbremote.Client): one seeded three-app
   workload driven over an embedded store, one server and a 2-shard
   dispatcher must behave identically; the dispatcher handle answers
   List_keys with the cross-shard union and refuses what it cannot
   route; and the CLI's data verbs print the same with or without
   --via. *)

module Wire = Fbremote.Wire
module Client = Fbremote.Client
module Procs = Fbremote.Procs
module Dispatch = Fbshard.Dispatch
module Apps = Fbsoak.Apps

let ops = 300

(* Run the seeded workload over [c]; the oracle diff must be empty. *)
let drive c =
  let apps =
    Apps.create ~seed:0x4A4DL ~kv_keys:160 ~wiki_pages:24 ~accounts:32
      ~theta:0.7 ~page_bytes:600 ~value_bytes:40
  in
  for op = 1 to ops do
    Apps.step apps c ~op
  done;
  Alcotest.(check (list string)) "application state matches the model" []
    (Apps.check apps c);
  (Apps.inline_checks apps, Apps.ops_by_app apps, Client.list_keys c)

(* Two shard processes behind a dispatcher. *)
let with_cluster f =
  Testnet.with_cluster 2 @@ fun _ procs map ->
  Testnet.with_dispatcher map (f procs)

let test_same_workload_three_transports () =
  let local =
    drive (Client.local (Forkbase.Db.create (Fbchunk.Chunk_store.mem_store ())))
  in
  let remote =
    Testnet.with_mem_server (fun port ->
        let c = Client.connect ~retries:50 ~port () in
        Fun.protect ~finally:(fun () -> Client.close c) (fun () -> drive c))
  in
  let sharded = with_cluster (fun _ d -> drive (Dispatch.client d)) in
  let checks (n, _, _) = n and by_app (_, a, _) = a and keys (_, _, k) = k in
  Alcotest.(check bool) "inline checks ran" true (checks local > 0);
  List.iter
    (fun (name, run) ->
      Alcotest.(check int) (name ^ ": same inline checks") (checks local)
        (checks run);
      Alcotest.(check (list (pair string int)))
        (name ^ ": same ops per app") (by_app local) (by_app run);
      Alcotest.(check (list string)) (name ^ ": same keys") (keys local)
        (keys run))
    [ ("one server", remote); ("2 shards", sharded) ]

(* One failure path for both transports: a request that makes the
   dispatcher raise — a track range with lo > hi, a version read of a cid
   naming a blob leaf rather than a meta chunk — is [Remote_failure]
   whether [Server.handle] runs in-process or behind a socket. *)
let test_bad_requests_fail_alike () =
  let page = String.make 100 'p' in
  let leaf =
    Fbtypes.Fblob.root
      (Fbtypes.Fblob.create
         (Fbchunk.Chunk_store.mem_store ())
         Fbtree.Tree_config.default page)
  in
  let check name c =
    ignore (Client.put c ~key:"page" (Wire.Blob page) : Fbchunk.Cid.t);
    let fails what f =
      match f () with
      | () -> Alcotest.failf "%s: %s was answered" name what
      | exception Client.Remote_failure _ -> ()
    in
    fails "track lo > hi" (fun () ->
        ignore (Client.track c ~key:"page" ~lo:5 ~hi:1 : (int * _) list));
    fails "get_version of a blob leaf" (fun () ->
        ignore (Client.get_version c leaf : Wire.value))
  in
  check "local"
    (Client.local (Forkbase.Db.create (Fbchunk.Chunk_store.mem_store ())));
  Testnet.with_mem_server (fun port ->
      let c = Client.connect ~retries:50 ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () -> check "socket" c))

let test_dispatcher_handle () =
  with_cluster @@ fun procs d ->
  let c = Dispatch.client d in
  for i = 1 to 40 do
    ignore (Client.put c ~key:(Printf.sprintf "k%d" i) (Wire.Str "v") : Fbchunk.Cid.t)
  done;
  let per_shard =
    List.map
      (fun p ->
        let s = Client.connect ~port:(Procs.port p) () in
        Fun.protect ~finally:(fun () -> Client.close s) (fun () -> Client.list_keys s))
      procs
  in
  List.iter
    (fun keys ->
      Alcotest.(check bool) "each shard holds some keys" true (keys <> []))
    per_shard;
  Alcotest.(check (list string)) "List_keys is the cross-shard union"
    (List.sort_uniq String.compare (List.concat per_shard))
    (Client.list_keys c);
  Alcotest.(check int) "all 40 keys listed" 40 (List.length (Client.list_keys c));
  match Client.checkpoint c with
  | (_ : int * int) -> Alcotest.fail "Checkpoint must not route"
  | exception Client.Remote_failure msg ->
      Alcotest.(check string) "typed refusal"
        "checkpoint: not routable through the dispatcher" msg

(* --- served blob puts rebase onto the branch head --- *)

module Db = Forkbase.Db

let page = Workload.Text_edit.initial_page ~seed:7L ~size:(32 * 1024)

(* [s] with 100 bytes at [pos] overwritten by other text. *)
let edited s pos =
  Workload.Text_edit.apply s
    (Workload.Text_edit.Overwrite
       (pos, Workload.Text_edit.initial_page ~seed:8L ~size:100))

(* One served put; its uid and the chunk-store puts it cost. *)
let put_counted c ?branch key v =
  let before = (Client.stats c).Wire.puts in
  let uid = Client.put ?branch c ~key v in
  (uid, (Client.stats c).Wire.puts - before)

let test_served_blob_rebase () =
  let c = Client.local (Db.create (Fbchunk.Chunk_store.mem_store ())) in
  (* The same history through the embedded API, every blob a full build. *)
  let full = Db.create (Fbchunk.Chunk_store.mem_store ()) in
  let full_put ?branch key v = Db.put ?branch full ~key v in
  let same_uid what served expected =
    Alcotest.(check string) (what ^ ": uid equals the full build's")
      (Fbchunk.Cid.to_hex expected) (Fbchunk.Cid.to_hex served)
  in
  let reads_back ?branch key v =
    Alcotest.(check bool) (key ^ " reads back exactly") true
      (Client.get ?branch c ~key = Wire.Blob v)
  in
  (* A new key: full build, one put per chunk plus the meta chunk. *)
  let uid, puts = put_counted c "page" (Wire.Blob page) in
  same_uid "first put" uid (full_put "page" (Db.blob full page));
  let chunks = Fbtypes.Fblob.chunk_count (Fbtypes.Fblob.create (Fbchunk.Chunk_store.mem_store ()) Fbtree.Tree_config.default page) in
  Alcotest.(check int) "a new key takes the full build" (chunks + 1) puts;
  (* A 100 B overwrite rebases onto the head. *)
  let v2 = edited page 16_000 in
  let uid, puts = put_counted c "page" (Wire.Blob v2) in
  same_uid "100 B edit" uid (full_put "page" (Db.blob full v2));
  Alcotest.(check bool) (Printf.sprintf "100 B edit: %d puts <= 3" puts) true (puts <= 3);
  reads_back "page" v2;
  (* A string head, then a blob: the fallback full build. *)
  let uid = Client.put c ~key:"note" (Wire.Str "short") in
  same_uid "string head" uid (full_put "note" (Db.str "short"));
  let uid, puts = put_counted c "note" (Wire.Blob page) in
  same_uid "blob over a string" uid (full_put "note" (Db.blob full page));
  Alcotest.(check int) "a string head takes the full build" (chunks + 1) puts;
  reads_back "note" page;
  (* A freshly forked branch rebases onto the fork's head. *)
  Client.fork c ~key:"page" ~from_branch:"master" ~new_branch:"draft";
  (match Db.fork full ~key:"page" ~from_branch:"master" ~new_branch:"draft" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Db.error_to_string e));
  let v3 = edited v2 30_000 in
  let uid, puts = put_counted c ~branch:"draft" "page" (Wire.Blob v3) in
  same_uid "put on a fork" uid (full_put ~branch:"draft" "page" (Db.blob full v3));
  Alcotest.(check bool) (Printf.sprintf "put on a fork: %d puts <= 3" puts) true (puts <= 3);
  reads_back ~branch:"draft" "page" v3;
  reads_back "page" v2;
  (* Putting the head's own bytes again writes only the new meta chunk. *)
  let uid, puts = put_counted c ~branch:"draft" "page" (Wire.Blob v3) in
  same_uid "unchanged put" uid (full_put ~branch:"draft" "page" (Db.blob full v3));
  Alcotest.(check int) "unchanged put: meta chunk only" 1 puts

(* --- the CLI over the handle --- *)

let cli = "../bin/forkbase_cli.exe"

(* Run the CLI against the store in [dir]; its stdout, or a failure. *)
let run_cli ~dir args =
  Unix.putenv "FORKBASE_DIR" dir;
  let ic = Unix.open_process_args_in cli (Array.of_list (cli :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> Alcotest.failf "forkbase %s failed" (String.concat " " args)

let test_cli_get_prints_alike () =
  Procs.with_temp_dir @@ fun dir ->
  with_cluster @@ fun procs _ ->
  let via =
    match procs with
    | p :: _ -> [ "--via"; Printf.sprintf "127.0.0.1:%d" (Procs.port p) ]
    | [] -> Alcotest.fail "no shards"
  in
  List.iter
    (fun (key, value, flags) ->
      let put target = ignore (run_cli ~dir ([ "put"; key; value ] @ flags @ target) : string) in
      put [];
      put via;
      let local = run_cli ~dir [ "get"; key ] in
      Alcotest.(check string) (key ^ ": one line, newline-terminated") (value ^ "\n") local;
      Alcotest.(check string) (key ^ ": same with --via") local
        (run_cli ~dir ([ "get"; key ] @ via)))
    [ ("page", "a blob value", [ "--blob" ]); ("note", "a string value", []) ]

(* serve and follow take the same server-config flags. *)
let test_cli_server_flags () =
  Procs.with_temp_dir @@ fun dir ->
  List.iter
    (fun cmd ->
      let help = run_cli ~dir [ cmd; "--help=plain" ] in
      List.iter
        (fun flag ->
          let rec mem i =
            i + String.length flag <= String.length help
            && (String.sub help i (String.length flag) = flag || mem (i + 1))
          in
          if not (mem 0) then Alcotest.failf "forkbase %s: no %s" cmd flag)
        [ "--max-conns"; "--idle-timeout"; "--max-frame-bytes" ])
    [ "serve"; "follow" ]

let () =
  Alcotest.run "handle"
    [
      ( "transports",
        [
          Alcotest.test_case "same workload: local, server, 2 shards" `Quick
            test_same_workload_three_transports;
          Alcotest.test_case "dispatcher: key union, unroutable refused" `Quick
            test_dispatcher_handle;
          Alcotest.test_case "bad requests fail alike: local and socket" `Quick
            test_bad_requests_fail_alike;
        ] );
      ( "blob put",
        [
          Alcotest.test_case "rebases onto the branch head" `Quick
            test_served_blob_rebase;
        ] );
      ( "cli",
        [
          Alcotest.test_case "get prints alike with or without --via" `Quick
            test_cli_get_prints_alike;
          Alcotest.test_case "serve and follow take the server flags"
            `Quick test_cli_server_flags;
        ] );
    ]
