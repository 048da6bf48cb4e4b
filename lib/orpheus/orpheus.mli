(** An OrpheusDB-style versioned dataset store (the §6.4 baseline).

    OrpheusDB's CVD model keeps one shared record table (each distinct
    record stored once under a record id) and, per dataset version, a
    vector mapping row order to record ids.  Working with a version means
    {e checkout} (materialize a full copy) and {e commit} (diff the working
    copy against the parent, allocate rids for new/changed records, write a
    whole new rid vector).  The full-vector-per-version design is what
    makes its space increment large and its version diff cost flat in
    Figures 16b/17a. *)

type t
type version = int

val create : unit -> t

val import : t -> Workload.Dataset.record array -> version

val checkout : t -> version -> Workload.Dataset.record array
(** Materializes the entire working copy, like [CHECKOUT] into a Postgres
    table. *)

val commit : t -> parent:version -> Workload.Dataset.record array -> version

val sum_qty : t -> version -> int
(** Aggregation executed against the version's materialized view: walk the
    rid vector and parse each record's field. *)

val diff_versions : t -> version -> version -> int
(** Number of differing rows, computed by full rid-vector comparison. *)

val storage_bytes : t -> int
(** Record storage plus rid vectors. *)

val record_count : t -> int
