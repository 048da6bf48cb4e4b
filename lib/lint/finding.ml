type rule =
  | Cid_discipline
  | Syscall_discipline
  | No_partial
  | Typed_errors
  | No_swallow
  | Dune_hygiene
  | No_block_in_loop
  | Wire_exhaustiveness
  | Fd_discipline
  | Dead_export
  | Lint_usage
  | Parse_error

let all_rules =
  [
    Cid_discipline;
    Syscall_discipline;
    No_partial;
    Typed_errors;
    No_swallow;
    Dune_hygiene;
    No_block_in_loop;
    Wire_exhaustiveness;
    Fd_discipline;
    Dead_export;
    Lint_usage;
    Parse_error;
  ]

let rule_id = function
  | Cid_discipline -> "cid-discipline"
  | Syscall_discipline -> "syscall-discipline"
  | No_partial -> "no-partial"
  | Typed_errors -> "typed-errors"
  | No_swallow -> "no-swallow"
  | Dune_hygiene -> "dune-hygiene"
  | No_block_in_loop -> "no-block-in-loop"
  | Wire_exhaustiveness -> "wire-exhaustiveness"
  | Fd_discipline -> "fd-discipline"
  | Dead_export -> "dead-export"
  | Lint_usage -> "lint-usage"
  | Parse_error -> "parse-error"

let rule_of_id id =
  List.find_opt (fun r -> String.equal (rule_id r) id) all_rules

type t = {
  rule : rule;
  file : string;
  scope : string;
  line : int;
  message : string;
}

let source_roots = [ "lib"; "bin"; "bench"; "test"; "perfbench"; "examples" ]

(* "x/y/_build/default/lib/core/db.ml" and "../lib/core/db.ml" both
   normalize to "lib/core/db.ml": take the path from its first top-level
   source segment onward. *)
let scope_of_file file =
  let parts = String.split_on_char '/' file in
  let rec from_root = function
    | [] -> None
    | root :: _ as tail when List.exists (String.equal root) source_roots ->
        Some (String.concat "/" tail)
    | _ :: tail -> from_root tail
  in
  match from_root parts with Some scoped -> scoped | None -> file

let in_lib scope = String.starts_with ~prefix:"lib/" scope

let in_lib_or_bin scope =
  in_lib scope || String.starts_with ~prefix:"bin/" scope

let v ~rule ~file ~line message =
  { rule; file; scope = scope_of_file file; line; message }

let compare a b =
  match String.compare a.scope b.scope with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> String.compare (rule_id a.rule) (rule_id b.rule)
      | c -> c)
  | c -> c

let to_string t =
  Printf.sprintf "%s:%d: [%s] %s" t.file t.line (rule_id t.rule) t.message
