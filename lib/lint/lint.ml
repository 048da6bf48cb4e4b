module F = Finding

(* ------------------------------------------------------------------ *)
(* dune-hygiene                                                        *)

let declares_library dune_text =
  (* token-level scan: a "(library" stanza opener *)
  String.split_on_char '(' dune_text
  |> List.exists (fun chunk ->
         match String.split_on_char ' ' (String.trim chunk) with
         | "library" :: _ -> true
         | [ one ] -> String.equal (String.trim one) "library"
         | _ -> false)

(* A -w spec that turns whole warning classes off: "-a" anywhere in the
   spec ("a" alone *enables* all, "@a" makes all fatal — both fine). *)
let relaxes_warnings spec =
  let n = String.length spec in
  let rec scan i =
    if i + 1 >= n then false
    else if spec.[i] = '-' && spec.[i + 1] = 'a' then true
    else scan (i + 1)
  in
  scan 0

let dune_tokens text =
  String.map (function '(' | ')' | '\n' | '\t' -> ' ' | c -> c) text
  |> String.split_on_char ' '
  |> List.filter (fun s -> String.length s > 0)

let rec relaxed_w_flag = function
  | [] -> false
  | "-w" :: spec :: rest -> relaxes_warnings spec || relaxed_w_flag rest
  | _ :: rest -> relaxed_w_flag rest

let hygiene_of_listing ~dir ~dune ~files =
  let scope_dir = F.scope_of_file dir in
  let in_lib = String.equal scope_dir "lib" || F.in_lib scope_dir in
  match dune with
  | None -> []
  | Some dune_text ->
      let missing_mli =
        if in_lib && declares_library dune_text then
          List.filter_map
            (fun f ->
              if
                String.ends_with ~suffix:".ml" f
                && (not (String.length f > 0 && f.[0] = '.'))
                && not (List.exists (String.equal (f ^ "i")) files)
              then
                Some
                  (F.v ~rule:F.Dune_hygiene
                     ~file:(Filename.concat dir f)
                     ~line:1
                     "library module has no .mli; every lib/ module keeps \
                      an explicit interface")
              else None)
            files
        else []
      in
      let relaxed =
        if in_lib && relaxed_w_flag (dune_tokens dune_text) then
          [
            F.v ~rule:F.Dune_hygiene
              ~file:(Filename.concat dir "dune")
              ~line:1
              "dune flags disable whole warning classes (-w ...-a...); \
               libraries must stay warning-clean under the default strict \
               set";
          ]
        else []
      in
      missing_mli @ relaxed

(* ------------------------------------------------------------------ *)
(* The pipeline: syntactic rules per file, interprocedural analyses over
   the whole set, then one suppression pass over their union — so an
   allow-annotation for no-block-in-loop works exactly like one for any
   syntactic rule, and an annotation that hides nothing is itself
   reported (lint-usage), keeping suppressions honest as code moves. *)

let apply_suppressions units findings =
  let remaining = ref findings in
  let out = ref [] in
  List.iter
    (fun (file, source, parsed_ok) ->
      let scope = F.scope_of_file file in
      let mine, others =
        List.partition (fun (f : F.t) -> String.equal f.F.scope scope) !remaining
      in
      remaining := others;
      let sup, bad = Rules.suppressions source in
      let bad =
        if F.in_lib_or_bin scope then
          List.map (fun (f : F.t) -> { f with F.file; scope }) bad
        else []
      in
      let sup = List.map (fun (line, rule) -> (line, rule, ref false)) sup in
      let kept =
        List.filter
          (fun (f : F.t) ->
            let matched =
              List.filter
                (fun ((line : int), rule, _) ->
                  String.equal (F.rule_id rule) (F.rule_id f.F.rule)
                  && (line = f.F.line || line = f.F.line - 1))
                sup
            in
            List.iter (fun (_, _, used) -> used := true) matched;
            match matched with [] -> true | _ :: _ -> false)
          mine
      in
      (* An annotation that suppressed nothing is stale — but only when we
         could actually look (the file parsed, and rules apply to its
         scope at all). *)
      let unused =
        if parsed_ok && F.in_lib_or_bin scope then
          List.filter_map
            (fun (line, rule, used) ->
              if !used then None
              else
                Some
                  (F.v ~rule:F.Lint_usage ~file ~line
                     (Printf.sprintf
                        "suppression of %s hides nothing; remove it or \
                         re-anchor it on the offending line"
                        (F.rule_id rule))))
            sup
        else []
      in
      out := kept @ bad @ unused @ !out)
    units;
  !remaining @ !out

let lint_sources units =
  let intfs, impls =
    List.partition (fun (file, _) -> String.ends_with ~suffix:".mli" file) units
  in
  let parsed =
    List.filter_map
      (fun (file, source) ->
        match Rules.parse_structure ~file source with
        | Ok structure -> Some (file, structure)
        | Error _ -> None)
      impls
  in
  let interfaces, interface_errors =
    List.partition_map
      (fun (file, source) ->
        match Rules.parse_signature ~file source with
        | Ok signature -> Left (file, signature)
        | Error (line, message) ->
            Right
              (F.v ~rule:F.Parse_error ~file ~line
                 ("cannot parse: " ^ message)))
      intfs
  in
  let raw =
    List.concat_map (fun (file, source) -> Rules.syntactic ~file source) impls
    @ interface_errors
    @ Interproc.analyze parsed interfaces
  in
  let parsed_ok file =
    List.mem_assoc file parsed || List.mem_assoc file interfaces
  in
  let units =
    List.map (fun (file, source) -> (file, source, parsed_ok file)) units
  in
  apply_suppressions units raw |> List.sort_uniq F.compare

(* ------------------------------------------------------------------ *)
(* Tree walking                                                        *)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Ok text
  | exception Sys_error msg -> Error msg

let skip_dir name =
  String.equal name "_build"
  || (String.length name > 0 && name.[0] = '.')

(* Dangling symlinks and races must not crash the gate. *)
let is_dir path =
  match Sys.is_directory path with
  | b -> b
  | exception Sys_error _ -> false

let is_source name =
  String.ends_with ~suffix:".ml" name || String.ends_with ~suffix:".mli" name

(* One source into the unit set; an unreadable path is a finding. *)
let add_source (units, findings) path =
  match read_file path with
  | Ok source -> ((path, source) :: units, findings)
  | Error msg ->
      ( units,
        F.v ~rule:F.Parse_error ~file:path ~line:1 ("cannot read: " ^ msg)
        :: findings )

(* Walk a tree accumulating (units to analyze, findings): sources feed
   the pipeline as a single set (the interprocedural analyses need to
   see them together), unreadable paths and dune-hygiene violations are
   findings immediately. *)
let rec walk (units, findings) path =
  if is_dir path then begin
    let entries =
      match Sys.readdir path with
      | names ->
          let names = Array.to_list names in
          List.sort String.compare names
      | exception Sys_error _ -> []
    in
    let dune =
      if List.exists (String.equal "dune") entries then
        match read_file (Filename.concat path "dune") with
        | Ok text -> Some text
        | Error _ -> None
      else None
    in
    let findings = hygiene_of_listing ~dir:path ~dune ~files:entries @ findings in
    List.fold_left
      (fun acc name ->
        let child = Filename.concat path name in
        if skip_dir name && is_dir child then acc else walk acc child)
      (units, findings) entries
  end
  else if is_source path then add_source (units, findings) path
  else (units, findings)

let collect paths =
  let units, findings =
    List.fold_left
      (fun acc path ->
        if Sys.file_exists path then walk acc path else add_source acc path)
      ([], []) paths
  in
  lint_sources (List.rev units) @ findings |> List.sort_uniq F.compare

type report = { fresh : F.t list; tolerated : int }

let run_report ?(baseline = Baseline.empty) paths =
  let all = collect paths in
  let fresh = Baseline.filter_new baseline all in
  { fresh; tolerated = List.length all - List.length fresh }
