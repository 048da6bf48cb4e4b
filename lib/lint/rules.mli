(** The per-expression AST rules: parse one [.ml] source with
    [compiler-libs] and walk the parsetree with {!Ast_iterator},
    reporting violations of the repo's correctness disciplines (see
    DESIGN.md §9 for each rule's motivating bug).  Suppressions are
    {e scanned} here but {e applied} in {!Lint}, where the syntactic and
    interprocedural findings meet — every entry point sees one
    suppression semantics, and an annotation that hides nothing can be
    reported.

    The analyzer is purely syntactic — it runs [Parse.implementation],
    not the typechecker — so the cid rule is a documented heuristic: it
    fires on polymorphic operations whose operand is {e directly} a
    cid-shaped identifier or record field ([cid]/[uid]/[digest] and
    plurals, or a [Cid.*] path), never on mere mentions inside larger
    expressions. *)

val parse_structure :
  file:string -> string -> (Parsetree.structure, int * string) result
(** Parse one source, never raising: [Error (line, message)] on anything
    [Parse.implementation] rejects. *)

val parse_signature :
  file:string -> string -> (Parsetree.signature, int * string) result
(** {!parse_structure} for an interface ([.mli]) source. *)

val syntactic : file:string -> string -> Finding.t list
(** [syntactic ~file source] parses [source] (named [file] for locations
    and scoping) and returns the raw per-expression findings —
    {e without} suppressions applied.  A source that does not parse
    yields a single [parse-error] finding; the analyzer itself never
    raises. *)

val suppressions : string -> (int * Finding.rule) list * Finding.t list
(** The hand-rolled comment scanner behind suppression handling:
    [(line, rule)] pairs for each allow-annotation, plus
    [lint-usage] findings for annotations naming unknown rules (these
    come back with an empty [file] the caller fills in).  A suppression
    covers findings of that rule on its own line and on the following
    line (annotate above or at the end of the offending line). *)
