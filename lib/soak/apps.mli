(** The soak's mixed application traffic: three forkable applications —
    a Redis-style KV service, a versioned wiki with fork/edit/merge
    draft sessions, and a transfer ledger with a conservation invariant
    — multiplexed over one {!Fbremote.Client} handle by a weighted
    {!Workload.Mixer}, with zipfian key popularity per application and a
    {!Fbcheck.App_model} shadow oracle updated in lockstep with every
    operation.  The handle's transport is the caller's choice: an
    embedded store ({!Fbremote.Client.local}), one server
    ({!Fbremote.Client.connect}) or a sharded cluster
    ([Fbshard.Dispatch.client]) run the same seeded workload.

    Reads are checked {e inline} against the oracle as the workload
    runs (the "continuous" half of continuous invariant checking);
    {!check} re-reads the full application state at quiesce points. *)

type t

val create :
  seed:int64 ->
  kv_keys:int ->
  wiki_pages:int ->
  accounts:int ->
  theta:float ->
  page_bytes:int ->
  value_bytes:int ->
  t
(** Deterministic from [seed]; [theta] is the zipfian skew shared by the
    three per-app popularity distributions. *)

exception Mismatch of string list
(** An inline read-back disagreed with the shadow model (raised from
    {!step}); the payload is the mismatch description. *)

val step : t -> Fbremote.Client.t -> op:int -> unit
(** Issue one mixed-application operation over [c] and update the shadow
    models.  [op] is the driver's operation index (used in generated
    contents so every written value is unique and replayable).
    @raise Mismatch when an inline read check fails. *)

val inline_checks : t -> int
(** Read-backs checked against the oracle so far. *)

val ops_by_app : t -> (string * int) list
(** Operations issued per application, for the outcome summary. *)

val check : t -> Fbremote.Client.t -> string list
(** Diff the full application state read through a handle against the
    oracles; [[]] means every application's state matches. *)
