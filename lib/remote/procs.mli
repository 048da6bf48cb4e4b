(** Child-process server lifecycles and scratch directories for the
    tests, the benches and the soak harness.

    One clean idiom, shared instead of re-derived per test file: bind the
    listening socket {e in the parent} (port [0] = kernel-assigned
    ephemeral port, so concurrent test binaries never collide), fork, let
    the child serve on the inherited descriptor, and close the parent's
    copy.  The parent learns the real port before the child even starts,
    so a client can connect (with retries) immediately — and because
    {!Server.listen} sets [SO_REUSEADDR], a killed server can be
    respawned {e on the same port}, which is what lets the soak
    harness's chaos schedule SIGKILL and restart a primary that clients
    and followers keep addressing. *)

type t
(** A spawned child server process. *)

val port : t -> int
val pid : t -> int

val listener : ?port:int -> unit -> Unix.file_descr * int
(** Bind + listen on 127.0.0.1:[port] (default [0]: an ephemeral port)
    and read back the assigned port. *)

val spawn : ?port:int -> (Unix.file_descr -> unit) -> t
(** [spawn serve] binds a listener (see {!listener}), forks, and runs
    [serve listen_fd] in the child; the child exits 0 when [serve]
    returns (or 1 if it raises) without running the parent's [at_exit]
    handlers.  The parent's copy of the listening socket is closed. *)

val spawn_on : Unix.file_descr * int -> (Unix.file_descr -> unit) -> t
(** Like {!spawn} but over a listener the caller already bound with
    {!listener} — the idiom for spawning a whole shard cluster, where
    every port must be known (to build the partition map) before any
    child forks. *)

val kill : t -> unit
(** SIGKILL the child and reap it; idempotent.  The crash half of the
    soak's kill/restart chaos events — pair it with a fresh {!spawn} at
    {!port} to model a supervisor restart. *)

val reap : t -> unit
(** Wait for a child that is expected to exit on its own (e.g. after a
    [Quit] request) without signalling it; idempotent. *)

(** {1 Scratch directories} *)

val rm_rf : string -> unit
(** Remove [path] recursively (directories, files, symlinks);
    a path that does not exist is not an error. *)

val with_temp_dir : (string -> 'a) -> 'a
(** [with_temp_dir f] runs [f] on a fresh, empty temporary directory and
    removes it with {!rm_rf} afterwards, whether [f] returns or raises. *)
