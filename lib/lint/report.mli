(** Machine-readable lint output ([forkbase lint --json]), following the
    [Bench_json] conventions: hand-emitted JSON against a small, stable
    schema ([rule]/[file]/[line]/[message] per finding, plus a [status]
    mirroring the CLI exit code) so CI can gate on it. *)

type status =
  | Clean  (** nothing fired at all — exit 0 *)
  | Baseline_tolerated
      (** findings fired but every one was within the baseline's budget —
          exit 2, distinct so CI can ratchet the baseline down *)
  | New_findings  (** findings escaped the baseline — exit 1 *)

val status : tolerated:int -> Finding.t list -> status
(** Classify a run from its new findings and the count the baseline
    absorbed. *)

val exit_code : status -> int

val to_json : tolerated:int -> Finding.t list -> string
(** The full JSON document for the run's {e new} findings ([file] fields
    are the repo-relative scope paths, so output is stable wherever the
    tool runs from). *)
