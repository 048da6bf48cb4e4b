module Persist = Fbpersist.Persist
module Server = Fbremote.Server
module Procs = Fbremote.Procs

let spawn_primary ?port ~dir () =
  Procs.spawn ?port (fun listen_fd ->
      let p = Persist.open_db dir in
      ignore (Replica.serve_primary p listen_fd : Server.counters);
      Persist.close p)

let spawn_follower ?port ~dir ~host ~primary_port () =
  Procs.spawn ?port (fun listen_fd ->
      let f = Replica.open_follower ~dir ~host ~port:primary_port () in
      ignore (Replica.serve f listen_fd : Server.counters);
      Replica.close f)
