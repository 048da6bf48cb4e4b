(* The soak harness (lib/soak): chaos-schedule determinism and coverage,
   short-profile determinism (two runs from one seed produce the same
   event log and counters), a full short run that demonstrably exercises
   every chaos event kind with all three invariant families asserted,
   and the forced-failure path — a deliberately corrupted store must
   produce a replayable failure report.

   Env knobs (mirroring the FORKBASE_QCHECK_ family):
     FORKBASE_SOAK_OPS      driver operations for the full run (default 400)
     FORKBASE_SOAK_SEED     run seed (decimal or 0x-hex)
     FORKBASE_SOAK_SECONDS  adds a wall-clock deadline (long-style run) *)

module Chaos = Fbsoak.Chaos
module Soak = Fbsoak.Soak

let env_ops () =
  match Sys.getenv_opt "FORKBASE_SOAK_OPS" with
  | Some s -> ( match int_of_string_opt s with Some v when v >= 10 -> Some v | _ -> None)
  | None -> None

let env_seed () =
  match Sys.getenv_opt "FORKBASE_SOAK_SEED" with
  | Some s -> Int64.of_string_opt s
  | None -> None

let env_seconds () =
  match Sys.getenv_opt "FORKBASE_SOAK_SECONDS" with
  | Some s -> float_of_string_opt s
  | None -> None

(* --- the chaos schedule --- *)

let test_schedule_deterministic () =
  let s1 = Chaos.schedule ~seed:0xC0DEL ~total_ops:1_000 ~events:6 in
  let s2 = Chaos.schedule ~seed:0xC0DEL ~total_ops:1_000 ~events:6 in
  Alcotest.(check (list string))
    "same seed, same schedule"
    (List.map Chaos.scheduled_to_string s1)
    (List.map Chaos.scheduled_to_string s2);
  let s3 = Chaos.schedule ~seed:0xBEEFL ~total_ops:1_000 ~events:6 in
  Alcotest.(check bool) "different seed, different schedule" false
    (List.map Chaos.scheduled_to_string s1
    = List.map Chaos.scheduled_to_string s3)

let test_schedule_shape_and_coverage () =
  List.iter
    (fun seed ->
      let total_ops = 500 in
      let s = Chaos.schedule ~seed ~total_ops ~events:6 in
      Alcotest.(check int) "requested number of events" 6 (List.length s);
      let ats = List.map (fun { Chaos.at; _ } -> at) s in
      Alcotest.(check bool) "sorted distinct slots" true
        (List.sort_uniq compare ats = ats);
      List.iter
        (fun at ->
          Alcotest.(check bool)
            (Printf.sprintf "slot %d past the warmup tenth" at)
            true
            (at > total_ops / 10 && at <= total_ops))
        ats;
      (* with >= 4 slots every kind is guaranteed to appear *)
      let kinds =
        List.sort_uniq compare
          (List.map (fun { Chaos.event; _ } -> Chaos.kind_name event) s)
      in
      Alcotest.(check (list string))
        "all four kinds covered"
        (List.sort compare Chaos.all_kind_names)
        kinds)
    [ 0x1L; 0x2L; 0xFEEDL; 0x12345L ];
  Alcotest.(check int) "zero events" 0
    (List.length (Chaos.schedule ~seed:0x1L ~total_ops:100 ~events:0))

(* --- short-profile determinism: one seed, one run --- *)

let test_short_run_deterministic () =
  let capture () =
    let buf = Buffer.create 512 in
    let cfg =
      Soak.short_config ~seed:0xD373L ~ops:120
        ~log:(fun l ->
          (* keep only the chaos-event log: timings never appear in it *)
          if String.length l >= 5 && String.sub l 0 5 = "chaos" then begin
            Buffer.add_string buf l;
            Buffer.add_char buf '\n'
          end)
        ()
    in
    let o = Soak.run cfg in
    (Buffer.contents buf, o)
  in
  let log1, o1 = capture () in
  let log2, o2 = capture () in
  Alcotest.(check string) "identical chaos-event logs" log1 log2;
  Alcotest.(check bool) "events actually fired" true (String.length log1 > 0);
  Alcotest.(check int) "same ops" o1.Soak.ops_done o2.Soak.ops_done;
  Alcotest.(check (list (pair string int)))
    "same event counts" o1.Soak.events_fired o2.Soak.events_fired;
  Alcotest.(check int) "same inline checks" o1.Soak.inline_checks
    o2.Soak.inline_checks;
  Alcotest.(check int) "same faults injected" o1.Soak.faults_injected
    o2.Soak.faults_injected;
  Alcotest.(check (list (pair string int)))
    "same per-app op counts" o1.Soak.ops_by_app o2.Soak.ops_by_app

(* --- the full short profile: every chaos kind, every invariant --- *)

let test_short_profile_full () =
  let ops = Option.value ~default:400 (env_ops ()) in
  let cfg =
    match env_seed () with
    | Some seed -> Soak.short_config ~seed ~ops ()
    | None -> Soak.short_config ~ops ()
  in
  let cfg =
    match env_seconds () with None -> cfg | Some s -> { cfg with deadline = Some s }
  in
  let o = Soak.run cfg in
  Alcotest.(check bool) "ran the requested ops" true
    (o.Soak.ops_done = ops || o.Soak.timed_out);
  List.iter
    (fun kind ->
      let n = Option.value ~default:0 (List.assoc_opt kind o.Soak.events_fired) in
      Alcotest.(check bool)
        (Printf.sprintf "chaos kind %S actually fired (%d)" kind n)
        true (o.Soak.timed_out || n >= 1))
    Chaos.all_kind_names;
  Alcotest.(check bool) "inline model checks ran" true (o.Soak.inline_checks > 0);
  Alcotest.(check bool) "full verifies ran" true (o.Soak.full_verifies >= 2);
  Alcotest.(check bool) "stores were fsck'd" true (o.Soak.stores_fscked > 0);
  Alcotest.(check bool) "convergence was checked" true
    (o.Soak.convergence_checks > 0);
  Alcotest.(check bool) "application models were diffed" true
    (o.Soak.model_checks > 0);
  if ops >= 400 && not o.Soak.timed_out then
    Alcotest.(check bool) "store faults actually fired" true
      (o.Soak.faults_injected > 0)

(* --- the sharded profile: the three apps under kills + live rebalance --- *)

let test_sharded_profile () =
  let run () =
    let buf = Buffer.create 512 in
    let log l = Buffer.add_string buf (l ^ "\n") in
    let o = Soak.run_sharded ~shards:2 (Soak.short_config ~seed:0x54A2DL ~ops:150 ~log ()) in
    (Buffer.contents buf, o)
  in
  let log, o = run () in
  let log2, o2 = run () in
  Alcotest.(check string) "same seed, same log" log log2;
  Alcotest.(check (list (pair string int)))
    "same per-app op counts" o.Soak.ops_by_app o2.Soak.ops_by_app;
  Alcotest.(check int) "ran the requested ops" 150 o.Soak.ops_done;
  List.iter
    (fun kind ->
      let n = Option.value ~default:0 (List.assoc_opt kind o.Soak.events_fired) in
      Alcotest.(check int)
        (Printf.sprintf "chaos event %S fired" kind)
        1 n)
    [ "shard-kill"; "shard-add" ];
  Alcotest.(check bool) "inline checks ran" true (o.Soak.inline_checks > 0);
  Alcotest.(check bool) "quiesce verifies ran" true (o.Soak.full_verifies >= 2);
  Alcotest.(check bool) "application models were diffed" true
    (o.Soak.model_checks > 0);
  List.iter
    (fun app ->
      let n = Option.value ~default:0 (List.assoc_opt app o.Soak.ops_by_app) in
      Alcotest.(check bool) (Printf.sprintf "%s traffic ran (%d ops)" app n) true
        (n > 0))
    [ "kv"; "wiki"; "ledger" ];
  (* 2 seeded shards + 1 added live, all fsck'd after shutdown *)
  Alcotest.(check int) "every shard store fsck'd" 3 o.Soak.stores_fscked

(* --- a real invariant violation must produce a replayable report --- *)

let test_sabotage_fails_with_report () =
  let cfg =
    { (Soak.short_config ~seed:0x5AB07A6EL ~ops:160 ()) with
      sabotage_at = Some 120 }
  in
  match Soak.run cfg with
  | (_ : Soak.outcome) ->
      Alcotest.fail "a corrupted store must not pass the soak"
  | exception Soak.Soak_failed f ->
      Fun.protect ~finally:(fun () -> Fbremote.Procs.rm_rf f.Soak.f_scratch) @@ fun () ->
      Alcotest.(check int64) "report carries the seed" 0x5AB07A6EL f.Soak.f_seed;
      Alcotest.(check bool) "violations are detailed" true
        (f.Soak.f_detail <> []);
      Alcotest.(check bool) "the full chaos schedule is in the report" true
        (f.Soak.f_schedule <> []);
      Alcotest.(check bool) "scratch preserved for post-mortem" true
        (Sys.file_exists f.Soak.f_scratch);
      let report = Soak.failure_report f in
      let contains needle =
        let n = String.length needle and h = String.length report in
        let rec go i = i + n <= h && (String.sub report i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "report prints the seed" true
        (contains "seed 0x5ab07a6e");
      Alcotest.(check bool) "report prints the chaos schedule" true
        (contains "chaos schedule:");
      Alcotest.(check bool) "report prints the replay command" true
        (contains "replay: forkbase soak --profile short --ops 160 --seed 0x5ab07a6e");
      Alcotest.(check bool) "report names the fsck violation" true
        (contains "fsck" || contains "sabotaged")

let () =
  Alcotest.run "soak"
    [
      ( "chaos",
        [
          Alcotest.test_case "schedule deterministic" `Quick
            test_schedule_deterministic;
          Alcotest.test_case "schedule shape + kind coverage" `Quick
            test_schedule_shape_and_coverage;
        ] );
      ( "soak",
        [
          Alcotest.test_case "short run deterministic" `Quick
            test_short_run_deterministic;
          Alcotest.test_case "short profile: all kinds, all invariants"
            `Quick test_short_profile_full;
          Alcotest.test_case "sabotage fails with a replayable report" `Quick
            test_sabotage_fails_with_report;
          Alcotest.test_case "sharded: kills + rebalance, zero lost acks"
            `Quick test_sharded_profile;
        ] );
    ]
