(* The benchmark harness itself: Bench_util math, the Bench_json
   reporter, and one end-to-end run of `main.exe smoke --json-dir …`
   whose output is parsed with a tiny JSON reader and checked against the
   documented schema.  A final lint asserts every experiment module
   actually adopted the reporter, so a new experiment can't silently skip
   the recorded trajectory. *)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float msg expect got =
  if not (feq expect got) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expect got

(* --- percentile: interpolated, not floor-truncated --- *)

let test_percentile_interpolates () =
  (* p90 of {0,10} is 9, not 0 (the old floor-index estimator returned
     sorted.(int_of_float (0.9 *. 2.)) = sorted.(1) at best, and
     sorted.(0) with truncation toward the low rank) *)
  check_float "p90 of {0,10}" 9.0 (Bench_util.percentile [| 0.; 10. |] 0.9);
  check_float "median of {1,2,3,4}" 2.5
    (Bench_util.percentile [| 1.; 2.; 3.; 4. |] 0.5);
  let ranks = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check_float "p99 of 1..100" 99.01 (Bench_util.percentile ranks 0.99);
  check_float "p0 is the min" 1.0 (Bench_util.percentile ranks 0.0);
  check_float "p100 is the max" 100.0 (Bench_util.percentile ranks 1.0)

let test_percentile_bounds () =
  check_float "single element" 7.0 (Bench_util.percentile [| 7.0 |] 0.99);
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Bench_util.percentile [||] 0.5));
  (* out-of-range p clamps instead of reading out of bounds *)
  check_float "p>1 clamps" 3.0 (Bench_util.percentile [| 1.; 2.; 3. |] 1.5);
  check_float "p<0 clamps" 1.0 (Bench_util.percentile [| 1.; 2.; 3. |] (-0.5))

let test_sorted_of_list () =
  let sorted = Bench_util.sorted_of_list [ 3.0; 1.0; 2.0 ] in
  Alcotest.(check bool) "sorts ascending" true (sorted = [| 1.0; 2.0; 3.0 |]);
  (* Float.compare gives nan a total order (before every number) instead
     of the arbitrary polymorphic-compare behaviour *)
  let with_nan = Bench_util.sorted_of_list [ 2.0; Float.nan; 1.0 ] in
  Alcotest.(check bool) "nan sorts first" true (Float.is_nan with_nan.(0));
  Alcotest.(check bool) "numbers still ordered" true
    (with_nan.(1) = 1.0 && with_nan.(2) = 2.0)

(* --- a minimal JSON reader, enough to validate the reporter schema --- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let pos = ref 0 in
  let len = String.length s in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char buf '"'; advance (); go ()
          | Some '\\' -> Buffer.add_char buf '\\'; advance (); go ()
          | Some '/' -> Buffer.add_char buf '/'; advance (); go ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
          | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > len then fail "short \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              Buffer.add_char buf (Char.chr (int_of_string ("0x" ^ hex) land 0xff));
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let numchar = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> numchar c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((k, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or } in object"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); List [])
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List (List.rev (v :: acc))
            | _ -> fail "expected , or ] in array"
          in
          items []
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "empty input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing bytes";
  v

let member name = function
  | Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> v
      | None -> Alcotest.failf "missing field %S" name)
  | _ -> Alcotest.failf "expected object around field %S" name

let as_str field = function
  | Str s -> s
  | _ -> Alcotest.failf "field %S is not a string" field

(* --- Bench_json in process: escaping and non-finite values --- *)

let test_reporter_roundtrip () =
  Fbremote.Procs.with_temp_dir @@ fun dir ->
  Bench_json.set_sink ~dir ~git_rev:"rev\"with\\quotes" ~scale:"small";
  Bench_json.begin_experiment ~area:"unit" ~id:"exp1";
  Bench_json.metric ~name:"plain" ~value:42.5 ~unit:"ops/s";
  Bench_json.metric ~name:"weird \"name\"\n" ~value:1.0 ~unit:"x";
  Bench_json.metric ~name:"failed" ~value:Float.nan ~unit:"ms";
  Bench_json.metric ~name:"overflow" ~value:Float.infinity ~unit:"ms";
  Bench_json.end_experiment ();
  Bench_json.flush ();
  let path = Filename.concat dir "BENCH_unit.json" in
  let ic = open_in_bin path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = parse_json raw in
  Alcotest.(check string) "git_rev round-trips escaping" "rev\"with\\quotes"
    (as_str "git_rev" (member "git_rev" j));
  let exp =
    match member "experiments" j with
    | List [ e ] -> e
    | _ -> Alcotest.fail "expected one experiment"
  in
  let metrics =
    match member "metrics" exp with
    | List ms -> ms
    | _ -> Alcotest.fail "metrics not a list"
  in
  let metric name =
    match
      List.find_opt (fun m -> as_str "name" (member "name" m) = name) metrics
    with
    | Some m -> member "value" m
    | None -> Alcotest.failf "metric %S missing" name
  in
  (match metric "plain" with
  | Num v -> check_float "plain value" 42.5 v
  | _ -> Alcotest.fail "plain value not a number");
  Alcotest.(check bool) "escaped metric name survives" true
    (match metric "weird \"name\"\n" with Num _ -> true | _ -> false);
  Alcotest.(check bool) "nan becomes null" true (metric "failed" = Null);
  Alcotest.(check bool) "infinity becomes null" true (metric "overflow" = Null)

(* --- end to end: main.exe smoke --json-dir, schema-checked --- *)

(* Resolve against the test binary, not the cwd: `dune runtest` runs
   tests from _build/default/test, `dune exec` from the project root. *)
let bench_dir =
  Filename.concat (Filename.dirname Sys.executable_name) "../bench"

let bench_exe = Filename.concat bench_dir "main.exe"

let test_smoke_run_emits_valid_json () =
  Fbremote.Procs.with_temp_dir @@ fun dir ->
  let cmd =
    Printf.sprintf "%s smoke --json-dir %s --git-rev testrev > /dev/null"
      (Filename.quote bench_exe) (Filename.quote dir)
  in
  (match Unix.system cmd with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "%s failed" cmd);
  let path = Filename.concat dir "BENCH_smoke.json" in
  Alcotest.(check bool) "BENCH_smoke.json written" true (Sys.file_exists path);
  let ic = open_in_bin path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = parse_json raw in
  Alcotest.(check string) "area" "smoke" (as_str "area" (member "area" j));
  Alcotest.(check string) "git_rev" "testrev"
    (as_str "git_rev" (member "git_rev" j));
  Alcotest.(check string) "scale" "small" (as_str "scale" (member "scale" j));
  Alcotest.(check string) "generated_by" "bench/main.exe"
    (as_str "generated_by" (member "generated_by" j));
  let exp =
    match member "experiments" j with
    | List [ e ] -> e
    | _ -> Alcotest.fail "expected exactly one experiment"
  in
  Alcotest.(check string) "experiment id" "smoke"
    (as_str "id" (member "id" exp));
  let metrics =
    match member "metrics" exp with
    | List (_ :: _ as ms) -> ms
    | _ -> Alcotest.fail "metrics missing or empty"
  in
  List.iter
    (fun m ->
      let (_ : string) = as_str "name" (member "name" m) in
      let (_ : string) = as_str "unit" (member "unit" m) in
      match member "value" m with
      | Num _ | Null -> ()
      | _ -> Alcotest.fail "metric value not number/null")
    metrics;
  let names = List.map (fun m -> as_str "name" (member "name" m)) metrics in
  List.iter
    (fun required ->
      if not (List.mem required names) then
        Alcotest.failf "smoke metric %S missing" required)
    [ "puts_per_sec"; "put_ops"; "synthetic_p99"; "elapsed" ]

(* --- adoption lint: every experiment module reports through Bench_json --- *)

let test_every_experiment_module_reports () =
  let harness_modules = [ "bench_json.ml"; "bench_util.ml" ] in
  let offenders =
    Sys.readdir bench_dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 6
           && String.sub f 0 6 = "bench_"
           && Filename.check_suffix f ".ml"
           && not (List.mem f harness_modules))
    |> List.filter (fun f ->
           let path = Filename.concat bench_dir f in
           let ic = open_in_bin path in
           let src = really_input_string ic (in_channel_length ic) in
           close_in ic;
           (* substring search: does the module ever call the reporter? *)
           let needle = "Bench_json." in
           let nlen = String.length needle in
           let found = ref false in
           for i = 0 to String.length src - nlen do
             if (not !found) && String.sub src i nlen = needle then
               found := true
           done;
           not !found)
  in
  if offenders <> [] then
    Alcotest.failf
      "experiment modules without any Bench_json.metric call: %s"
      (String.concat ", " offenders)

(* --- forked workers: a failed child fails the join --- *)

let test_fork_workers_fail_loudly () =
  Bench_util.fork_workers 3 ignore ();
  match Bench_util.fork_workers 3 (fun i -> if i = 1 then failwith "boom") () with
  | () -> Alcotest.fail "a failed worker must fail the join"
  | exception Failure msg ->
      Alcotest.(check string) "names the failures" "1 of 3 bench workers failed"
        msg

let () =
  Random.self_init ();
  Alcotest.run "bench"
    [
      ( "percentile",
        [
          Alcotest.test_case "interpolates" `Quick test_percentile_interpolates;
          Alcotest.test_case "bounds" `Quick test_percentile_bounds;
          Alcotest.test_case "sorted_of_list" `Quick test_sorted_of_list;
        ] );
      ( "workers",
        [
          Alcotest.test_case "a failed child fails the join" `Quick
            test_fork_workers_fail_loudly;
        ] );
      ( "reporter",
        [
          Alcotest.test_case "escaping + non-finite" `Quick
            test_reporter_roundtrip;
          Alcotest.test_case "smoke run emits valid JSON" `Quick
            test_smoke_run_emits_valid_json;
          Alcotest.test_case "every experiment module reports" `Quick
            test_every_experiment_module_reports;
        ] );
    ]
