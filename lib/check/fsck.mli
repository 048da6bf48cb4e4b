(** Deep invariant verifier — an fsck for ForkBase stores.

    Walks everything reachable from a database's branch tables and checks
    the invariants the paper's tamper evidence and structural sharing rest
    on (§4.2–4.3), returning a typed report instead of raising:

    - {b content addressing}: every reachable chunk re-hashes to the cid
      that references it;
    - {b POS-Tree shape}: every node parses, levels are homogeneous (index
      nodes above exactly one leaf level), index entry counts/spans/last
      keys match the child subtrees they summarize;
    - {b split patterns}: leaf boundaries re-detect under the configured
      rolling hash (no boundary pattern fires strictly inside a leaf, and
      every non-final leaf ends on a pattern or the forced maximum); index
      boundaries likewise under the cid low-bit pattern — so structural
      sharing (history independence) holds for every stored tree;
    - {b ordering}: sorted containers (Set / Map) are strictly increasing
      within and across leaves, and index split keys agree;
    - {b derivation graph}: every branch head resolves to a well-formed
      FObject whose key matches its table, whose depth is one more than
      its deepest base, and whose bases recursively verify.

    A report with zero violations is the machine-checkable statement that
    the store still satisfies every invariant — the dynamic analogue of
    the verified-MPT line of work (PAPERS.md). *)

type violation =
  | Missing_chunk of { cid : Fbchunk.Cid.t; context : string }
  | Hash_mismatch of {
      cid : Fbchunk.Cid.t;
      actual : Fbchunk.Cid.t;
      context : string;
    }  (** stored bytes no longer hash to the referencing cid: bit rot *)
  | Undecodable of { cid : Fbchunk.Cid.t; context : string; reason : string }
  | Structure of { cid : Fbchunk.Cid.t; context : string; reason : string }
      (** well-hashed but malformed: wrong tag, bad counts, bad depth … *)
  | Split_violation of {
      cid : Fbchunk.Cid.t;
      context : string;
      reason : string;
    }  (** a POS-Tree node boundary the split pattern would not produce *)
  | Order_violation of {
      cid : Fbchunk.Cid.t;
      context : string;
      reason : string;
    }
  | Bad_head of {
      key : string;
      branch : string option;
      uid : Fbchunk.Cid.t;
      reason : string;
    }  (** a branch head that does not resolve (from {!check_dir}) *)
  | Bad_store of { reason : string }
      (** the store itself refuses to open (corrupt journal / chunk log) *)

type report = {
  keys : int;  (** object keys walked *)
  versions : int;  (** distinct FObject versions walked *)
  trees : int;  (** distinct POS-Tree roots walked *)
  chunks : int;  (** distinct chunks fetched and re-hashed *)
  violations : violation list;  (** deduplicated, in discovery order *)
}

val ok : report -> bool
val violation_cid : violation -> Fbchunk.Cid.t option
val violation_to_string : violation -> string
val pp_report : Format.formatter -> report -> unit

val check_tree :
  ?cfg:Fbtree.Tree_config.t ->
  Fbchunk.Chunk_store.t ->
  kind:Fbtypes.Value.kind ->
  Fbchunk.Cid.t ->
  violation list
(** Verify one POS-Tree given its root cid and the value kind that chose
    its chunking ([cfg] must be the configuration the tree was built with;
    defaults to {!Fbtree.Tree_config.default}).
    @raise Invalid_argument on [Kprim] — primitives have no tree. *)

val check_db : Forkbase.Db.t -> report
(** Verify everything reachable from the database's branch tables.  Never
    raises on store damage — each problem becomes a violation. *)

val check_dir : ?cfg:Fbtree.Tree_config.t -> string -> report
(** Open the durable database in [dir] (lib/persist) and run {!check_db}.
    Standard torn-tail recovery runs first, as on any open; a store that
    refuses to open ({!Fbpersist.Persist.Corrupt_db}) is reported as a
    {!Bad_head} / {!Bad_store} violation instead of an exception.  [cfg]
    must match the configuration the store was written with (default:
    {!Fbtree.Tree_config.default}, which the CLI always uses). *)
