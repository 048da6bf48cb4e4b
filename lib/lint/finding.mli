(** Lint findings: what a rule reports, where, and how it prints.

    Each finding carries two paths: [file] is the path as the caller named
    it (kept clickable from the invocation directory), [scope] is the
    repo-relative normalization used for rule scoping, the wire-module
    allowlist, and baseline matching — so a baseline written at the repo
    root keeps matching when the tool runs from [_build] or [test/]. *)

type rule =
  | Cid_discipline
      (** polymorphic [=]/[compare]/[Hashtbl.hash] on content identifiers *)
  | Syscall_discipline
      (** raw [Unix.read]/[write]/[select]/[accept] outside the wire layer *)
  | No_partial  (** [List.hd]/[List.nth]/[Option.get] in [lib/] *)
  | Typed_errors  (** [failwith]/[assert false] in [lib/] *)
  | No_swallow  (** [with _ ->] / [exception _ ->] discarding the exception *)
  | Dune_hygiene  (** missing [.mli], relaxed warning flags *)
  | No_block_in_loop
      (** a blocking primitive is call-graph-reachable from the server's
          connection handlers outside the approved nonblocking wrappers *)
  | Wire_exhaustiveness
      (** a [Wire.request] variant the server, client, and codec tests do
          not all cover — the protocol has drifted *)
  | Fd_discipline
      (** a [Unix.openfile]/[socket]/[accept] result neither closed on
          every path nor escaping to an owner *)
  | Dead_export
      (** a top-level [val] in a [lib/] interface that no unit outside its
          own module references *)
  | Lint_usage
      (** broken lint annotations (unknown rule in a suppression, or a
          suppression that suppresses nothing) *)
  | Parse_error  (** the analyzer could not parse the source *)

val rule_id : rule -> string
(** Stable kebab-case id, used in suppressions and baselines. *)

val rule_of_id : string -> rule option

type t = {
  rule : rule;
  file : string;  (** path as given by the caller (display) *)
  scope : string;  (** repo-relative path (scoping + baseline matching) *)
  line : int;  (** 1-based *)
  message : string;
}

val v : rule:rule -> file:string -> line:int -> string -> t
(** Build a finding; [scope] is derived from [file] (see {!scope_of_file}). *)

val source_roots : string list
(** The repository's source directories: [lib], [bin], [bench], [test],
    [perfbench] and [examples] — what [forkbase lint] walks by default. *)

val scope_of_file : string -> string
(** Repo-relative normalization: the path from its first
    {!source_roots} segment onward ("../lib/core/db.ml" becomes
    "lib/core/db.ml"); unchanged when no such segment occurs. *)

val in_lib : string -> bool
val in_lib_or_bin : string -> bool
(** Scope predicates on a repo-relative path: the per-file rules judge
    [lib/] (and [bin/]) sources only. *)

val compare : t -> t -> int
(** Order by scope path, then line, then rule id. *)

val to_string : t -> string
(** ["file:line: [rule-id] message"]. *)
