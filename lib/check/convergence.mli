(** Replication-convergence checking: are two stores' branch heads equal?

    After a quiesce (writes stopped, followers synced until caught up),
    a primary and each of its followers must agree on the full head map —
    every key, every tagged branch, the same version uid at each.  The
    head map travels as plain data ([key -> (branch, uid-hex) list]),
    built from any access handle's listings — a server over the wire or
    a follower's embedded store — which is how the soak harness
    (lib/soak) uses it. *)

type heads = (string * (string * string) list) list
(** [key -> (branch, uid-hex) list], both levels sorted — the shape
    {!normalize} produces and {!diff} expects. *)

val normalize : (string * (string * string) list) list -> heads
(** Sort keys and each key's branch list (by branch name). *)

val diff : left_name:string -> right_name:string -> left:heads -> right:heads -> string list
(** Human-readable divergence lines — keys missing on either side,
    branches missing on either side, and branch heads that differ; [[]]
    means the two stores converged.  Inputs must be {!normalize}d. *)
