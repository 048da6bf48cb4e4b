(** A call graph over compilation units, built from parsetrees alone.

    Nodes are top-level value definitions (including those inside nested
    modules); edges are name-based and conservative.  Resolution handles
    module-qualified paths (with library-wrapper suffixes, so
    [Fbremote.Wire.foo] reaches [wire.ml]), [module W = Wire] aliases,
    and [open]s ([open Unix] makes a bare [select] visible to a rule
    matching [Unix.select], unless a local definition shadows it).
    Functor applications, calls through parameters, and record fields of
    closures resolve to nothing: reachability under-approximates — it
    may miss a path, never invent one.  {!reach} is a worklist BFS with
    a visited set, so call cycles terminate and report each offending
    site once. *)

type t

val flatten_safe : Longident.t -> string list
(** [Longident.flatten] made total: a functor application flattens to a
    component no module is ever named, so it resolves to nothing. *)

type def
(** One top-level value definition. *)

val def_path : def -> string
(** The path inside its unit, e.g. ["serve"] or ["Sub.helper"]. *)

val build : (string * Parsetree.structure) list -> t
(** Build the graph from named parsetrees.  The unit's module name is
    derived from the file's basename ([.../log_store.ml] is
    [Log_store]); same-named files union their definitions, which only
    adds edges. *)

val module_of_file : string -> string
(** The unit name a source file defines: [.../log_store.mli] is
    [Log_store]. *)

val defs_in : t -> scope:string -> def list
(** The definitions of the unit whose repo-relative path is [scope]. *)

type hit = {
  h_parts : string list;  (** the offending head, in matched form *)
  h_file : string;  (** file containing the call site *)
  h_line : int;
  h_chain : string list;  (** def names from the root to the caller *)
}

val reach :
  t ->
  roots:def list ->
  approved:(string list -> bool) ->
  target:(string list -> bool) ->
  hit list
(** BFS from [roots].  Each call site is expanded into its candidate
    name forms (alias-substituted, open-qualified, suffix-stripped); a
    site matching [approved] is neither reported nor traversed (the
    blessed wrappers), a site matching [target] is reported with its
    call chain, and anything else that resolves is traversed.  Cycles
    terminate via the visited set. *)

val referrers : t -> module_:string -> string -> string list
(** [referrers t ~module_ v]: the repo-relative scopes of every unit that
    may mention [module_.v] — anywhere in its structure, through a
    qualified path (wrapper prefixes dropped), an alias or an open at any
    depth, or by using [module_] whole (a functor argument, a packed
    module, an [include]).  Local definitions do not shadow opens here:
    every approximation adds referrers, never removes one. *)
