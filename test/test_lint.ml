(* The lint analyzer (lib/lint): every rule has a firing fixture and a
   clean fixture, the call-graph analyses fire across units, suppressions
   and baselines round-trip, the walker skips build artifacts, and — the
   acceptance test — the live tree lints clean against the checked-in
   baseline. *)

module Finding = Fblint.Finding
module Rules = Fblint.Rules
module Baseline = Fblint.Baseline
module Lint = Fblint.Lint
module Callgraph = Fblint.Callgraph
module Report = Fblint.Report

let ids findings =
  List.map (fun (f : Finding.t) -> Finding.rule_id f.Finding.rule) findings

let lint ?(file = "lib/fixture.ml") source =
  Lint.lint_sources [ (file, source) ]

let check_ids name expected findings =
  Alcotest.(check (list string)) name expected (ids findings)

(* --- each syntactic rule: one firing fixture, one clean fixture --- *)

let test_cid_discipline () =
  check_ids "poly = on cid fires" [ "cid-discipline" ]
    (lint "let f cid other = cid = other");
  check_ids "poly compare on uid field fires" [ "cid-discipline" ]
    (lint "let f r o = compare r.uid o");
  check_ids "Hashtbl.hash on a digest fires" [ "cid-discipline" ]
    (lint "let f digest = Hashtbl.hash digest");
  check_ids "Cid.equal is the fix" []
    (lint "let f cid other = Cid.equal cid other");
  check_ids "poly = on non-cid values is fine" [] (lint "let f a b = a = b");
  check_ids "application results are not cid-valued" []
    (lint "let f c mask = Cid.low_bits c land mask = 0");
  check_ids "lucid/fluid do not match" []
    (lint "let f lucid fluid = lucid = fluid");
  (* inside a cid module even the eta-reduced polymorphic hash fires *)
  check_ids "bare Hashtbl.hash in cid.ml fires" [ "cid-discipline" ]
    (lint ~file:"lib/chunk/cid.ml" "let hash = Hashtbl.hash");
  check_ids "bare Hashtbl.hash elsewhere is fine" []
    (lint "let h = Hashtbl.hash")

let test_syscall_discipline () =
  check_ids "raw Unix.read in lib fires" [ "syscall-discipline" ]
    (lint "let f fd buf = Unix.read fd buf 0 1");
  check_ids "raw Unix.select in bin fires" [ "syscall-discipline" ]
    (lint ~file:"bin/fixture.ml" "let f fds = Unix.select fds [] [] 1.0");
  check_ids "the wire module is the allowlist" []
    (lint ~file:"lib/remote/wire.ml" "let f fd buf = Unix.read fd buf 0 1");
  check_ids "Unix.close is not a banned head" []
    (lint "let f fd = Unix.close fd")

let test_no_partial () =
  check_ids "List.hd fires" [ "no-partial" ] (lint "let f xs = List.hd xs");
  check_ids "Option.get passed as argument fires" [ "no-partial" ]
    (lint "let f os = List.map Option.get os");
  check_ids "total match is the fix" []
    (lint "let f = function [] -> 0 | x :: _ -> x");
  check_ids "tests are exempt" []
    (lint ~file:"test/fixture.ml" "let f xs = List.hd xs")

let test_typed_errors () =
  check_ids "failwith fires" [ "typed-errors" ]
    (lint "let f () = failwith \"boom\"");
  check_ids "assert false fires" [ "typed-errors" ]
    (lint "let f = function Some x -> x | None -> assert false");
  check_ids "invalid_arg is the fix" []
    (lint "let f () = invalid_arg \"boom\"");
  check_ids "ordinary asserts are fine" [] (lint "let f n = assert (n >= 0)");
  check_ids "tests are exempt" []
    (lint ~file:"test/fixture.ml" "let f () = failwith \"boom\"")

let test_no_swallow () =
  check_ids "with _ fires" [ "no-swallow" ]
    (lint "let f g = try g () with _ -> ()");
  check_ids "exception _ match case fires" [ "no-swallow" ]
    (lint "let f g = match g () with x -> x | exception _ -> 0");
  check_ids "narrowed handler is the fix" []
    (lint "let f g = try g () with Not_found -> ()");
  check_ids "binding the exception is fine" []
    (lint "let f g = try g () with e -> raise e")

let test_dune_hygiene () =
  let lib_dune = Some "(library\n (name foo))" in
  check_ids "missing .mli fires" [ "dune-hygiene" ]
    (Lint.hygiene_of_listing ~dir:"lib/foo" ~dune:lib_dune
       ~files:[ "a.ml"; "a.mli"; "b.ml"; "dune" ]);
  check_ids "paired .mli is clean" []
    (Lint.hygiene_of_listing ~dir:"lib/foo" ~dune:lib_dune
       ~files:[ "a.ml"; "a.mli"; "dune" ]);
  check_ids "relaxed -w flag fires" [ "dune-hygiene" ]
    (Lint.hygiene_of_listing ~dir:"lib/foo"
       ~dune:(Some "(library (name foo) (flags (:standard -w -a)))")
       ~files:[ "a.ml"; "a.mli"; "dune" ]);
  check_ids "strict -w spec is clean" []
    (Lint.hygiene_of_listing ~dir:"lib/foo"
       ~dune:(Some "(library (name foo) (flags (:standard -w +a-4)))")
       ~files:[ "a.ml"; "a.mli"; "dune" ]);
  check_ids "executable dirs need no .mli" []
    (Lint.hygiene_of_listing ~dir:"bin"
       ~dune:(Some "(executable (name cli))")
       ~files:[ "cli.ml"; "dune" ]);
  check_ids "test dirs are exempt" []
    (Lint.hygiene_of_listing ~dir:"test" ~dune:lib_dune
       ~files:[ "t.ml"; "dune" ])

let test_parse_error () =
  match lint "let let let" with
  | [ f ] ->
      Alcotest.(check string) "parse-error id" "parse-error"
        (Finding.rule_id f.Finding.rule)
  | fs -> Alcotest.failf "expected one parse-error, got %d findings" (List.length fs)

(* --- the call graph itself --- *)

let parse file source =
  match Rules.parse_structure ~file source with
  | Ok structure -> (file, structure)
  | Error (line, msg) -> Alcotest.failf "fixture %s:%d does not parse: %s" file line msg

let server = "lib/remote/server.ml"

let test_callgraph () =
  (* mutual recursion: the BFS terminates and still reports the site *)
  let cyclic =
    parse server
      "let rec handle fd = helper fd\n\
       and helper fd = if fd > 0 then handle fd else Unix.sleep 1"
  in
  let graph = Callgraph.build [ cyclic ] in
  let roots =
    List.filter
      (fun d -> String.equal (Callgraph.def_path d) "handle")
      (Callgraph.defs_in graph ~scope:server)
  in
  Alcotest.(check int) "one root" 1 (List.length roots);
  let hits =
    Callgraph.reach graph ~roots
      ~approved:(fun _ -> false)
      ~target:(fun parts ->
        match parts with [ "Unix"; "sleep" ] -> true | _ -> false)
  in
  (match hits with
  | [ h ] ->
      Alcotest.(check (list string))
        "chain walks the cycle"
        [ "Server.handle"; "Server.helper" ]
        h.Callgraph.h_chain
  | hs -> Alcotest.failf "expected one hit through the cycle, got %d" (List.length hs));
  (* functor bodies are recorded; applying one resolves to nothing
     (conservative), and flatten_safe never raises on Lapply *)
  let functored =
    parse "lib/x.ml"
      "module Make (X : sig val go : unit -> unit end) = struct\n\
      \  let run () = X.go ()\n\
       end\n\
       let top () = ()"
  in
  let graph = Callgraph.build [ functored ] in
  let find path =
    List.find_opt
      (fun d -> String.equal (Callgraph.def_path d) path)
      (Callgraph.defs_in graph ~scope:"lib/x.ml")
  in
  Alcotest.(check bool) "functor body and top level recorded" true
    (Option.is_some (find "Make.run") && Option.is_some (find "top"));
  Alcotest.(check (list string))
    "Lapply flattens totally"
    [ "(functor-application)"; "run" ]
    (Callgraph.flatten_safe
       (Longident.Ldot
          ( Longident.Lapply
              (Longident.Lident "Make", Longident.Lident "X"),
            "run" )))

(* --- no-block-in-loop --- *)

let test_no_block_in_loop () =
  (* the acceptance fixture: blocking Unix.write two calls deep inside a
     server handler (the direct syscall also trips the syntactic rule) *)
  check_ids "blocking write two calls deep fires"
    [ "no-block-in-loop"; "syscall-discipline" ]
    (lint ~file:server
       "let send fd buf = Unix.write fd buf 0 1\n\
        let relay fd buf = send fd buf\n\
        let handle fd buf = relay fd buf");
  (* the same shape through the blessed nonblocking wrapper is clean,
     even though the wrapper's own body holds the raw syscall *)
  check_ids "the Wire.write_nb path is clean" []
    (Lint.lint_sources
       [
         ( "lib/remote/wire.ml",
           "let write_nb fd buf =\n\
           \  match Unix.write fd buf 0 1 with\n\
           \  | n -> Some n\n\
           \  | exception Unix.Unix_error (_, _, _) -> None" );
         ( server,
           "let relay fd buf = Wire.write_nb fd buf\n\
            let handle fd buf = relay fd buf" );
       ]);
  (* open Unix makes a bare select visible... *)
  check_ids "open-qualified select fires" [ "no-block-in-loop" ]
    (lint ~file:server "open Unix\nlet handle fds = select fds [] [] 0.1");
  (* ...unless a local definition shadows it *)
  check_ids "local definition shadows the open" []
    (lint ~file:server
       "open Unix\n\
        let select fds a b t = ignore a; ignore b; ignore t; List.length fds\n\
        let handle fds = select fds [] [] 0.1");
  check_ids "module alias is expanded" [ "no-block-in-loop" ]
    (lint ~file:server "module U = Unix\nlet handle fd = ignore fd; U.sleep 1");
  (* a call through an injected hook parameter is invisible by design *)
  check_ids "?tick-style hook calls are not followed" []
    (lint ~file:server "let handle tick fd = ignore fd; tick ()");
  (* handlers only root in server.ml: the same code elsewhere is silent *)
  check_ids "non-server units have no handler roots" []
    (lint ~file:"lib/core/other.ml"
       "let relay fd = Unix.sleep 1 |> ignore; fd\nlet handle fd = relay fd");
  (* a deliberate blocking call can be suppressed like any other finding *)
  check_ids "suppression applies to interprocedural findings" []
    (lint ~file:server
       "let relay fd = ignore fd; Unix.sleep 1 (* lint: allow \
        no-block-in-loop *)\n\
        let handle fd = relay fd")

(* --- wire-exhaustiveness --- *)

let wire_fixture =
  "type request = Ping | Pong of int\ntype response = Done"

let server_dispatch_all =
  "let handle = function Wire.Ping -> 0 | Wire.Pong n -> n"

let client_builds_all = "let f n = (Wire.Ping, Wire.Pong n)"
let test_round_trips_all = "let gen n = [ Wire.Ping; Wire.Pong n ]"

let test_wire_exhaustiveness () =
  check_ids "all three roles covered is clean" []
    (Lint.lint_sources
       [
         ("lib/remote/wire.ml", wire_fixture);
         (server, server_dispatch_all);
         ("lib/remote/client.ml", client_builds_all);
         ("test/test_remote.ml", test_round_trips_all);
       ]);
  check_ids "undispatched variant fires" [ "wire-exhaustiveness" ]
    (Lint.lint_sources
       [
         ("lib/remote/wire.ml", wire_fixture);
         (server, "let handle = function Wire.Ping -> 0 | _ -> 1");
       ]);
  check_ids "unconstructible variant fires" [ "wire-exhaustiveness" ]
    (Lint.lint_sources
       [
         ("lib/remote/wire.ml", wire_fixture);
         ("lib/remote/client.ml", "let f () = Wire.Ping");
       ]);
  check_ids "variant missing from the codec round-trip fires"
    [ "wire-exhaustiveness" ]
    (Lint.lint_sources
       [
         ("lib/remote/wire.ml", wire_fixture);
         ("test/test_remote.ml", "let gen () = [ Wire.Ping ]");
       ]);
  (* a role absent from the analyzed set is skipped: linting a subtree
     never invents drift *)
  check_ids "absent roles are skipped" []
    (Lint.lint_sources [ ("lib/remote/wire.ml", wire_fixture) ]);
  (* the finding is anchored at the variant's declaration in wire.ml *)
  (match
     Lint.lint_sources
       [
         ("lib/remote/wire.ml", wire_fixture);
         (server, "let handle = function Wire.Ping -> 0 | _ -> 1");
       ]
   with
  | [ f ] ->
      Alcotest.(check string) "anchored in wire.ml" "lib/remote/wire.ml"
        f.Finding.scope
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs))

(* --- fd-discipline --- *)

let test_fd_discipline () =
  check_ids "dropped openfile result fires" [ "fd-discipline" ]
    (lint
       "let f path =\n\
       \  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in\n\
       \  Unix.lseek fd 0 Unix.SEEK_END");
  check_ids "one branch missing the close fires" [ "fd-discipline" ]
    (lint
       "let f path c =\n\
       \  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in\n\
       \  if c then Unix.close fd else ()");
  check_ids "closed on every path is clean" []
    (lint
       "let f path c =\n\
       \  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in\n\
       \  if c then Unix.close fd else Unix.close fd");
  check_ids "returning the fd hands it to the caller" []
    (lint
       "let open_ro path =\n\
       \  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in\n\
       \  fd");
  check_ids "Fun.protect finalizer captures the fd" []
    (lint
       "let f path g =\n\
       \  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in\n\
       \  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> g fd)");
  check_ids "storing the fd in a record escapes it" []
    (lint
       "type conn = { fd : Unix.file_descr }\n\
        let f path = { fd = Unix.openfile path [ Unix.O_RDONLY ] 0 }\n\
        let g path =\n\
       \  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in\n\
       \  { fd }");
  check_ids "passing the fd to an unknown callee escapes it" []
    (lint
       "let f path register =\n\
       \  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in\n\
       \  register fd");
  (* match-on-accept: the success case owns the fd, the exception case
     has nothing to release (accept fixtures sit in the wire module, the
     one place the raw syscall is syntactically legal) *)
  check_ids "accept case dropping the fd fires" [ "fd-discipline" ]
    (lint ~file:"lib/remote/wire.ml"
       "let f srv =\n\
       \  match Unix.accept srv with\n\
       \  | fd, _peer -> ignore fd; 0\n\
       \  | exception Unix.Unix_error (_, _, _) -> 1");
  check_ids "accept case closing the fd is clean" []
    (lint ~file:"lib/remote/wire.ml"
       "let f srv =\n\
       \  match Unix.accept srv with\n\
       \  | fd, _peer -> Unix.close fd; 0\n\
       \  | exception Unix.Unix_error (_, _, _) -> 1");
  check_ids "tests are exempt" []
    (lint ~file:"test/fixture.ml"
       "let f path =\n\
       \  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in\n\
       \  Unix.lseek fd 0 Unix.SEEK_END")

(* --- dead-export --- *)

let blob_mli =
  "val used : int -> int\n\
   val spare : int -> int\n\
   module Sub : sig val nested : int end\n\
   module Make (X : sig end) : sig val made : int end\n\
   include sig val included : int end"

let blob_ml =
  "let used x = x\n\
   let spare x = used x\n\
   module Sub = struct let nested = 0 end\n\
   module Make (X : sig end) = struct let made = 0 end\n\
   let included = 0"

(* [Blob.used] has a bin/ user in every fixture; [users] say where (and
   how) [Blob.spare] is referenced, if anywhere.  The rule judges only a
   set spanning every source root, so each gets an empty unit. *)
let dead_exports ?(mli = blob_mli) ?(ml = blob_ml) users =
  Lint.lint_sources
    (List.map (fun root -> (root ^ "/pad.ml", "")) Finding.source_roots
    @ [
        ("lib/store/blob.mli", mli);
        ("lib/store/blob.ml", ml);
        ("bin/main.ml", "let () = ignore (Blob.used 1)");
      ]
    @ users)

let test_dead_export () =
  Alcotest.(check (list (triple string string int)))
    "fires on the unreferenced val, at its .mli line"
    [ ("dead-export", "lib/store/blob.mli", 2) ]
    (List.map
       (fun (f : Finding.t) -> (Finding.rule_id f.rule, f.scope, f.line))
       (dead_exports []));
  (* nested signatures, functor results and includes are never judged:
     the one finding above is [spare], not [nested]/[made]/[included] *)
  List.iter
    (fun (name, user) -> check_ids name [] (dead_exports [ user ]))
    [
      ("module alias", ("bin/cli.ml", "module B = Blob\nlet f = B.spare"));
      ( "local module alias",
        ("bin/cli.ml", "let f () = let module B = Blob in B.spare 1") );
      ("open", ("bin/cli.ml", "open Blob\nlet f = spare"));
      ("local open", ("bin/cli.ml", "let f () = Blob.(spare 1)"));
      ("wrapper prefix", ("bin/cli.ml", "let f = Fbstore.Blob.spare"));
      ( "aliased wrapper",
        ("bin/cli.ml", "module B = Fbstore.Blob\nlet f = B.spare") );
      ("top-level effect", ("bin/cli.ml", "let () = ignore (Blob.spare 1)"));
      ("bench user", ("bench/b.ml", "let f = Blob.spare"));
      ("perfbench user", ("perfbench/p.ml", "let f = Blob.spare"));
      ("examples user", ("examples/e.ml", "let f = Blob.spare"));
      ("test-only user", ("test/test_blob.ml", "let f = Blob.spare"));
      ( "module used whole",
        ("bin/cli.ml", "module M = Set.Make (Blob)\nlet f = M.empty") );
    ];
  (* a reference from the module's own implementation is no user *)
  check_ids "own-module use does not count" [ "dead-export" ]
    (dead_exports ~ml:(blob_ml ^ "\nlet g = Blob.spare") []);
  (* with a source root missing, users may be unseen: linting a subtree
     never invents dead exports *)
  check_ids "a subtree is not judged" []
    (Lint.lint_sources
       [ ("lib/store/blob.mli", blob_mli); ("lib/store/blob.ml", blob_ml) ]);
  check_ids "suppression applies in an interface" []
    (dead_exports
       ~mli:
         "val used : int -> int\n\
          val spare : int -> int (* lint: allow dead-export *)"
       [])

(* --- suppressions --- *)

let test_suppressions () =
  check_ids "same-line suppression" []
    (lint "let f xs = List.hd xs (* lint: allow no-partial *)");
  check_ids "previous-line suppression" []
    (lint "(* lint: allow no-partial *)\nlet f xs = List.hd xs");
  check_ids "wrong rule neither hides nor stays silent"
    [ "lint-usage"; "no-partial" ]
    (lint "let f xs = List.hd xs (* lint: allow typed-errors *)");
  check_ids "two lines above does not hide" [ "lint-usage"; "no-partial" ]
    (lint "(* lint: allow no-partial *)\n\nlet f xs = List.hd xs");
  check_ids "unknown rule is itself a finding" [ "lint-usage"; "no-partial" ]
    (lint "let f xs = List.hd xs (* lint: allow no-such-rule *)");
  check_ids "empty suppression is itself a finding" [ "lint-usage" ]
    (lint "let f x = x (* lint: allow *)");
  (* one annotation can cover two rules firing on the same line *)
  check_ids "multi-rule suppression" []
    (lint
       "(* lint: allow no-partial typed-errors *)\n\
        let f = function [] -> failwith \"no\" | xs -> List.hd xs")

let test_unused_suppressions () =
  check_ids "a suppression hiding nothing is stale" [ "lint-usage" ]
    (lint "let f x = x (* lint: allow no-partial *)");
  check_ids "a working suppression is not stale" []
    (lint "let f xs = List.hd xs (* lint: allow no-partial *)");
  (* staleness is only judged where the rules apply at all *)
  check_ids "test scope is exempt from staleness" []
    (lint ~file:"test/fixture.ml" "let f x = x (* lint: allow no-partial *)");
  (* an unparsable file proves nothing about its annotations *)
  check_ids "unparsable files are not judged" [ "parse-error" ]
    (lint "let let let (* lint: allow no-partial *)")

(* --- machine-readable report --- *)

let test_report () =
  Alcotest.(check int) "clean exits 0" 0 Report.(exit_code (status ~tolerated:0 []));
  Alcotest.(check int) "tolerated exits 2" 2
    Report.(exit_code (status ~tolerated:3 []));
  let finding =
    Finding.v ~rule:Finding.No_partial ~file:"lib/x.ml" ~line:7 "say \"hi\""
  in
  Alcotest.(check int) "new findings exit 1" 1
    Report.(exit_code (status ~tolerated:3 [ finding ]));
  Alcotest.(check string) "empty report shape"
    "{\n\
    \  \"tool\": \"forkbase-lint\",\n\
    \  \"status\": \"clean\",\n\
    \  \"tolerated\": 0,\n\
    \  \"findings\": []\n\
     }\n"
    (Report.to_json ~tolerated:0 []);
  let json = Report.to_json ~tolerated:1 [ finding ] in
  let contains needle =
    let nh = String.length json and nn = String.length needle in
    let rec go i =
      i + nn <= nh
      && (String.equal (String.sub json i nn) needle || go (i + 1))
    in
    Alcotest.(check bool) ("json contains " ^ needle) true (go 0)
  in
  contains "\"status\": \"findings\"";
  contains "\"tolerated\": 1";
  contains "{ \"rule\": \"no-partial\", \"file\": \"lib/x.ml\", \"line\": 7";
  (* message quotes are escaped *)
  contains "\"message\": \"say \\\"hi\\\"\""

(* --- baseline --- *)

let test_baseline_roundtrip () =
  let two = lint "let f xs = List.hd xs\nlet g xs = List.nth xs 3" in
  Alcotest.(check int) "fixture has two findings" 2 (List.length two);
  let baseline = Baseline.of_string (Baseline.render two) in
  check_ids "rendered baseline covers its own findings" []
    (Baseline.filter_new baseline two);
  let three =
    lint "let f xs = List.hd xs\nlet g xs = List.nth xs 3\nlet h o = Option.get o"
  in
  check_ids "finding beyond the budget is new" [ "no-partial" ]
    (Baseline.filter_new baseline three);
  (* count-based matching survives line churn: same two findings shifted *)
  let shifted = lint "\n\n\nlet f xs = List.hd xs\nlet g xs = List.nth xs 3" in
  check_ids "baseline is line-number independent" []
    (Baseline.filter_new baseline shifted);
  check_ids "missing baseline file is empty" [ "no-partial"; "no-partial" ]
    (Baseline.filter_new (Baseline.load "no-such-baseline-file.txt") two);
  (* comments and malformed lines never crash the gate *)
  let messy = Baseline.of_string "# comment\n\nbogus line\nno-partial lib/fixture.ml 2\n" in
  check_ids "messy baseline still parses" [] (Baseline.filter_new messy two)

(* --- the walker --- *)

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let test_walker () =
  Fbremote.Procs.with_temp_dir @@ fun root ->
  let lib = Filename.concat root "lib" in
  Unix.mkdir lib 0o755;
  Unix.mkdir (Filename.concat lib "sub") 0o755;
  Unix.mkdir (Filename.concat lib "_build") 0o755;
  Unix.mkdir (Filename.concat lib ".git") 0o755;
  write_file (Filename.concat lib "sub/x.ml") "let f xs = List.hd xs";
  write_file (Filename.concat lib "_build/skip.ml") "let f xs = List.hd xs";
  write_file (Filename.concat lib ".git/skip.ml") "let f xs = List.hd xs";
  write_file (Filename.concat lib "notes.txt") "List.hd everywhere";
  let findings = Lint.collect [ lib ] in
  check_ids "only the real module is linted" [ "no-partial" ] findings;
  (match findings with
  | [ f ] ->
      Alcotest.(check string) "scope is repo-relative" "lib/sub/x.ml"
        f.Finding.scope
  | _ -> Alcotest.fail "expected exactly one finding");
  check_ids "nonexistent path is a finding, not a crash" [ "parse-error" ]
    (Lint.collect [ Filename.concat root "no-such-dir" ]);
  (* the walked units form one analysis set: a handler in a walked
     server.ml reaches a helper in a sibling walked file *)
  let remote = Filename.concat lib "remote" in
  Unix.mkdir remote 0o755;
  write_file
    (Filename.concat remote "server.ml")
    "let handle fd = Journal.sync fd";
  write_file (Filename.concat remote "journal.ml") "let sync fd = ignore fd";
  let findings = Lint.collect [ remote ] in
  check_ids "walked units are analyzed together" [ "no-block-in-loop" ]
    findings

(* --- acceptance: the live tree is clean under the checked-in baseline --- *)

let test_live_tree_clean () =
  (* cwd is test/ under `dune runtest`, the repo root under `dune exec` *)
  let at_root name =
    let up = Filename.concat ".." name in
    if Sys.file_exists up then up else name
  in
  let baseline = Baseline.load (at_root "lint-baseline.txt") in
  let { Lint.fresh; tolerated } =
    Lint.run_report ~baseline
      (List.map at_root Finding.source_roots)
  in
  Alcotest.(check int) "the baseline is empty and stays empty" 0 tolerated;
  match fresh with
  | [] -> ()
  | findings ->
      Alcotest.failf "live tree has %d new lint findings:\n%s"
        (List.length findings)
        (String.concat "\n" (List.map Finding.to_string findings))

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "cid-discipline" `Quick test_cid_discipline;
          Alcotest.test_case "syscall-discipline" `Quick test_syscall_discipline;
          Alcotest.test_case "no-partial" `Quick test_no_partial;
          Alcotest.test_case "typed-errors" `Quick test_typed_errors;
          Alcotest.test_case "no-swallow" `Quick test_no_swallow;
          Alcotest.test_case "dune-hygiene" `Quick test_dune_hygiene;
          Alcotest.test_case "parse-error" `Quick test_parse_error;
        ] );
      ( "interproc",
        [
          Alcotest.test_case "callgraph" `Quick test_callgraph;
          Alcotest.test_case "no-block-in-loop" `Quick test_no_block_in_loop;
          Alcotest.test_case "wire-exhaustiveness" `Quick
            test_wire_exhaustiveness;
          Alcotest.test_case "fd-discipline" `Quick test_fd_discipline;
          Alcotest.test_case "dead-export" `Quick test_dead_export;
        ] );
      ( "mechanism",
        [
          Alcotest.test_case "suppressions" `Quick test_suppressions;
          Alcotest.test_case "unused suppressions" `Quick
            test_unused_suppressions;
          Alcotest.test_case "report json" `Quick test_report;
          Alcotest.test_case "baseline roundtrip" `Quick test_baseline_roundtrip;
          Alcotest.test_case "walker" `Quick test_walker;
        ] );
      ( "acceptance",
        [ Alcotest.test_case "live tree lints clean" `Quick test_live_tree_clean ] );
    ]
