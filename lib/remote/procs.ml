type t = { pid : int; port : int; mutable reaped : bool }

let port t = t.port
let pid t = t.pid

let listener ?(port = 0) () =
  let fd = Server.listen ~port () in
  (fd, Server.bound_port fd)

let spawn_on (listen_fd, bound) serve =
  match Unix.fork () with
  | 0 ->
      let status =
        match serve listen_fd with
        | () -> 0
        | exception _ -> (* lint: allow no-swallow *)
            (* the child's failure surfaces as its exit status; nothing
               above this frame could report it better *)
            1
      in
      Unix._exit status
  | pid ->
      Unix.close listen_fd;
      { pid; port = bound; reaped = false }

let spawn ?port serve = spawn_on (listener ?port ()) serve

let do_wait t =
  if not t.reaped then begin
    (match Unix.waitpid [] t.pid with
    | (_ : int * Unix.process_status) -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ());
    t.reaped <- true
  end

let kill t =
  if not t.reaped then begin
    (try Unix.kill t.pid Sys.sigkill
     with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
    do_wait t
  end

let reap t = do_wait t

let alive t =
  (not t.reaped)
  &&
  match Unix.kill t.pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_temp_dir f =
  let dir = Filename.temp_dir "forkbase-" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)
