(** The ForkBase connector — the public API of the storage engine
    (Table 1 of the paper).

    A [Db.t] plays the role of one servlet plus its chunk storage: it
    maintains the per-key branch tables and executes Get / Put / Fork /
    Merge / Track requests.  It can run over any {!Fbchunk.Chunk_store.t}
    (in-memory, persistent log, or the cluster-partitioned pool).

    Method numbers below refer to Table 1. *)

type t

type error =
  | Unknown_key of string
  | Unknown_branch of string * string  (** key, branch *)
  | Branch_exists of string * string
  | Unknown_version of Fbchunk.Cid.t
  | Guard_failed of { expected : Fbchunk.Cid.t; actual : Fbchunk.Cid.t option }
  | Merge_conflicts of Merge.conflict list

val error_to_string : error -> string

val create : ?cfg:Fbtree.Tree_config.t -> Fbchunk.Chunk_store.t -> t

val store : t -> Fbchunk.Chunk_store.t
val cfg : t -> Fbtree.Tree_config.t

(** {1 Durability hooks (lib/persist)}

    Every branch-table mutation is reported to a single callback so a
    persistence layer can journal it.  One callback invocation carries all
    mutations of one logical operation (e.g. a put is a [Record_object]
    followed by a [Set_head]); the journal must commit them atomically. *)

type mutation =
  | Set_head of { key : string; branch : string; uid : Fbchunk.Cid.t }
  | Record_object of {
      key : string;
      uid : Fbchunk.Cid.t;
      bases : Fbchunk.Cid.t list;
    }
  | Rename of { key : string; old_name : string; new_name : string }
  | Remove_branch of { key : string; branch : string }
  | Replace_untagged of {
      key : string;
      drop : Fbchunk.Cid.t list;
      add : Fbchunk.Cid.t;
    }

val set_on_mutation : t -> (mutation list -> unit) -> unit
(** Install the journal hook.  The callback runs after the in-memory tables
    have been updated and before the operation returns to the caller. *)

val apply_mutation : t -> mutation -> unit
(** Re-apply a journaled mutation during recovery; does not fire the
    [set_on_mutation] callback. *)

val export_tables : t -> (string * Branch_table.snapshot) list
(** All branch tables keyed by object key, sorted, for checkpointing. *)

val import_tables : t -> (string * Branch_table.snapshot) list -> unit
(** Replace all branch tables, e.g. from a journal checkpoint record. *)

val default_branch : string
(** ["master"]. *)

(** {1 Value constructors}

    Convenience constructors binding values to this database's store and
    chunking configuration. *)

val str : string -> Fbtypes.Value.t
val int : int64 -> Fbtypes.Value.t
val tuple : string list -> Fbtypes.Value.t
val blob : t -> string -> Fbtypes.Value.t
val list : t -> string list -> Fbtypes.Value.t
val map : t -> (string * string) list -> Fbtypes.Value.t
val set : t -> string list -> Fbtypes.Value.t

(** {1 Put (M3, M4)} *)

val put :
  ?branch:string -> ?context:string -> t -> key:string -> Fbtypes.Value.t ->
  Fbchunk.Cid.t
(** (M3) Write a new value as the head of a tagged branch (created if
    absent); returns the new version uid. *)

val put_guarded :
  ?branch:string -> ?context:string -> t -> key:string ->
  guard:Fbchunk.Cid.t -> Fbtypes.Value.t -> (Fbchunk.Cid.t, error) result
(** Compare-and-swap variant (§4.5.1): succeeds only while the branch head
    equals [guard]. *)

val put_at :
  ?context:string -> t -> key:string -> base:Fbchunk.Cid.t ->
  Fbtypes.Value.t -> (Fbchunk.Cid.t, error) result
(** (M4) Fork-on-conflict put: derive a new version from any existing
    version.  Concurrent puts against the same base silently create
    untagged branches (§3.3.2). *)

(** {1 Get (M1, M2)} *)

val get : ?branch:string -> t -> key:string -> (Fbtypes.Value.t, error) result
val get_version : t -> Fbchunk.Cid.t -> (Fbtypes.Value.t, error) result
val get_object : t -> Fbchunk.Cid.t -> (Fobject.t, error) result
val head : ?branch:string -> t -> key:string -> (Fbchunk.Cid.t, error) result

(** {1 View (M8–M10)} *)

val list_keys : t -> string list
val list_tagged_branches : t -> key:string -> (string * Fbchunk.Cid.t) list
val list_untagged_branches : t -> key:string -> Fbchunk.Cid.t list

(** {1 Fork and branch management (M11–M14)} *)

val fork :
  t -> key:string -> from_branch:string -> new_branch:string ->
  (unit, error) result

val fork_at :
  t -> key:string -> version:Fbchunk.Cid.t -> new_branch:string ->
  (unit, error) result

val rename_branch :
  t -> key:string -> target:string -> new_name:string -> (unit, error) result

val remove_branch : t -> key:string -> target:string -> (unit, error) result

val restore_branch :
  t -> key:string -> branch:string -> Fbchunk.Cid.t -> (unit, error) result
(** Re-register a branch head after reopening a persistent store: branch
    tables are servlet state, so embedders persist and restore them
    separately from the chunk log. *)

(** {1 Merge (M5–M7)} *)

val merge :
  ?resolver:Merge.resolver -> ?context:string -> t -> key:string ->
  target:string -> ref_:[ `Branch of string | `Version of Fbchunk.Cid.t ] ->
  (Fbchunk.Cid.t, error) result
(** (M5/M6) Merge another branch or version into [target]; only the target
    branch's head advances. *)

val merge_untagged :
  ?resolver:Merge.resolver -> ?context:string -> t -> key:string ->
  Fbchunk.Cid.t list -> (Fbchunk.Cid.t, error) result
(** (M7) Merge a collection of untagged heads; the inputs are logically
    replaced in the UB-table by the merged version. *)

(** {1 Track (M15–M17)} *)

val track :
  ?branch:string -> t -> key:string -> dist_range:int * int ->
  ((int * Fbchunk.Cid.t * Fobject.t) list, error) result

val lca :
  t -> Fbchunk.Cid.t -> Fbchunk.Cid.t -> (Fbchunk.Cid.t, error) result

val diff : t -> Fbchunk.Cid.t -> Fbchunk.Cid.t -> (Diff.t, error) result
(** (§3.2) Difference between two versions of the same type — they may
    belong to different keys.
    @raise Diff.Type_mismatch when the kinds differ. *)

(** {1 Integrity} *)

val verify_version : t -> Fbchunk.Cid.t -> bool
(** Recompute the hash chain for a version's meta chunk and its value's
    POS-Tree: the tamper-evidence check available to clients. *)

val history_contains :
  t -> head:Fbchunk.Cid.t -> Fbchunk.Cid.t -> bool
