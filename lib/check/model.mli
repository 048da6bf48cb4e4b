(** Pure reference model of the connector, for differential testing.

    The model mirrors the {e observable} state of a {!Forkbase.Db.t} —
    keys, tagged branch heads, untagged heads, and the value stored at
    each head — with naive OCaml data (association lists and sorted
    lists) instead of POS-Trees and chunk stores.  A state-machine test
    drives the same operation sequence through both and calls
    {!check_against} after every step; any divergence is a bug in the
    engine (or in this 200-line model, which is short enough to audit).

    Version uids cannot be predicted without re-implementing hashing, so
    the [apply_*] mutators take the uid the real operation returned and
    the model tracks table semantics around it — exactly the
    [Branch_table] rules: recording an object adds it to the untagged set
    and retires its bases, setting a tagged head does not retire
    anything, merging untagged heads replaces them with the result. *)

type mvalue =
  | MStr of string
  | MInt of int64
  | MTuple of string list
  | MBlob of string
  | MList of string list
  | MMap of (string * string) list  (** sorted by key, unique keys *)
  | MSet of string list  (** sorted, unique *)

val mvalue_of_value : Fbtypes.Value.t -> mvalue
(** Materialize a stored value into its model image (reads the store). *)

val mvalue_equal : mvalue -> mvalue -> bool
val mvalue_to_string : mvalue -> string

type t

val create : unit -> t

(** {1 Mutators — call after the corresponding db operation succeeded} *)

val apply_put :
  t -> key:string -> branch:string -> uid:Fbchunk.Cid.t -> mvalue -> unit

val apply_put_at :
  t -> key:string -> base:Fbchunk.Cid.t -> uid:Fbchunk.Cid.t -> mvalue -> unit

val apply_fork : t -> key:string -> new_branch:string -> uid:Fbchunk.Cid.t -> unit
val apply_rename : t -> key:string -> target:string -> new_name:string -> unit
val apply_remove : t -> key:string -> target:string -> unit

val apply_merge :
  t ->
  key:string ->
  target:string ->
  bases:Fbchunk.Cid.t list ->
  uid:Fbchunk.Cid.t ->
  mvalue ->
  unit
(** A tagged-branch merge: the new version derives from [bases] (target
    head first, then the merged-in head) and becomes the target's head. *)

val apply_merge_untagged :
  t -> key:string -> heads:Fbchunk.Cid.t list -> uid:Fbchunk.Cid.t -> mvalue -> unit
(** (M7) The listed untagged heads are replaced by the merged version.
    No-op when [heads] has fewer than two elements, like the engine. *)

(** {1 Introspection — for generators choosing valid next operations} *)

val branches : t -> key:string -> string list
val head : t -> key:string -> branch:string -> Fbchunk.Cid.t option
val untagged : t -> key:string -> Fbchunk.Cid.t list
val value_of : t -> key:string -> uid:Fbchunk.Cid.t -> mvalue option

val check_against : t -> Forkbase.Db.t -> string list
(** Diff the model against the database's full observable state: key
    list, tagged branches per key, untagged heads per key, and the value
    read back at every tagged and untagged head.  Returns human-readable
    mismatch descriptions; [[]] means the states agree. *)
