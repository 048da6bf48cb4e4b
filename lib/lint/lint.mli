(** The lint driver: walk source trees, run the syntactic {!Rules} over
    every [.ml], run the interprocedural {!Interproc} analyses over the
    whole set, apply the dune-hygiene checks per directory, and subtract
    a {!Baseline}.

    Suppressions are applied here, once, over the union of syntactic and
    interprocedural findings — an allow-annotation for no-block-in-loop
    behaves exactly like one for a syntactic rule.  An annotation that hides
    nothing (in [lib/] or [bin/], in a file that parses) is itself
    reported as [lint-usage], so suppressions cannot silently outlive
    the code they excused.

    This is what [forkbase lint] and the [@lint] dune alias call.  The
    analyzer runs inside the tier-1 gate, so no entry point here may
    raise on malformed input — unreadable files and unparsable sources
    become findings, never exceptions. *)

val lint_sources : (string * string) list -> Finding.t list
(** Analyze a set of [(file, source)] units together (suppressions
    applied, no baseline), so the interprocedural analyses can resolve
    calls across them.  [file] names a unit for locations and scoping —
    fixture tests pass paths like ["lib/fixture.ml"] to opt into
    library-scope rules.  A unit named [*.mli] is an interface: only
    dead-export reads it.  This is the core that {!collect} feeds. *)

val hygiene_of_listing :
  dir:string -> dune:string option -> files:string list -> Finding.t list
(** The dune-hygiene rule over one directory's listing: [dune] is the
    dune file's text if present, [files] the directory's entries.  In a
    [lib/] directory that declares a library, every [.ml] must have a
    matching [.mli], and no dune [flags] stanza may silence whole warning
    classes ([-w] specs containing [-a]/[a-]).  Exposed on a listing — not
    a path — so tests can feed synthetic directories. *)

val collect : string list -> Finding.t list
(** Walk the given files/directories (skipping [_build] and dot-dirs),
    gather every [.ml] and [.mli] into one analysis set, apply
    dune-hygiene per directory, and return all findings sorted.
    Unreadable paths become [parse-error] findings. *)

type report = { fresh : Finding.t list; tolerated : int }
(** A run's outcome for exit-code and [--json] purposes: the findings
    that escaped the baseline, and how many the baseline absorbed. *)

val run_report : ?baseline:Baseline.t -> string list -> report
(** [collect] minus the baseline budget: [fresh] empty means the tree is
    clean. *)
