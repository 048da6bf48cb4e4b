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

let () =
  Alcotest.run "handle"
    [
      ( "transports",
        [
          Alcotest.test_case "same workload: local, server, 2 shards" `Quick
            test_same_workload_three_transports;
          Alcotest.test_case "dispatcher: key union, unroutable refused" `Quick
            test_dispatcher_handle;
        ] );
      ( "cli",
        [
          Alcotest.test_case "get prints alike with or without --via" `Quick
            test_cli_get_prints_alike;
        ] );
    ]
