(** The interprocedural analyses: rules that need the whole unit set —
    a {!Callgraph} or cross-file facts — rather than one expression.
    Like everything in the gate, total: no entry point raises on legal
    syntax.

    - {b no-block-in-loop} — no blocking primitive (raw
      [Unix.read]/[write]/[select]/[sleep]/[system]..., the blocking
      wire framing [Wire.read_frame]/[write_frame], the
      [Log_store]/[Journal]/[Persist] fsync paths) may be call-graph
      reachable from [lib/remote/server.ml]'s connection handlers
      ([serve], [handle], [handle_*], [on_*]).  The approved escape
      hatches are the [Wire.*_nb] nonblocking wrappers (neither reported
      nor traversed) and injected hooks ([?tick], [?group_commit],
      [?checkpoint]) — closures the graph cannot see through, which is
      the point: blocking work reaches the event loop only through a
      hook it schedules.
    - {b wire-exhaustiveness} — every [Wire.request] variant must be
      dispatched by a [server.ml] match case, constructible from
      [client.ml], and exercised by [test_remote.ml]'s codec round-trip
      generators.  Each role is checked only when its file is in the
      analyzed set, so linting a subtree never invents drift; findings
      anchor at the variant's declaration in [wire.ml].
    - {b fd-discipline} — flow-sensitive: a
      [Unix.openfile]/[socket]/[accept] result must, on every normal
      path of its binding's scope, be closed, or escape to an owner
      (returned, stored in a record/tuple/constructor, captured by a
      closure — the [Fun.protect ~finally] shape — or passed to a
      non-[Unix] callee).  [Unix.*] calls other than [close] borrow
      without consuming, and so does [ignore].  Exception paths are
      checked only where the
      source names them; wrap the region in [Fun.protect] where an
      unhandled exception between acquisition and release matters.
    - {b dead-export} — a top-level [val] in a [lib/**/*.mli] is a
      finding when no unit outside its own module references it
      ({!Callgraph.referrers}: aliases, opens and wrapper prefixes
      resolved, a test-only user counts as a user).  [val]s inside nested
      signatures, functor results and [include]s are never judged, and
      the rule runs only when the set holds units from every source root
      ([lib], [bin], [bench], [test], [perfbench], [examples]). *)

val analyze :
  (string * Parsetree.structure) list ->
  (string * Parsetree.signature) list ->
  Finding.t list
(** All four analyses over one parsed set: implementations (the call
    graph is built from these) and the interfaces whose exports
    dead-export judges. *)
