module Wire = Fbremote.Wire
module Client = Fbremote.Client
module Chunk = Fbchunk.Chunk

exception Unroutable of string
exception Rebalance_failed of string

let () =
  Printexc.register_printer (function
    | Unroutable msg -> Some ("forkbase dispatch: unroutable: " ^ msg)
    | Rebalance_failed msg -> Some ("forkbase rebalance failed: " ^ msg)
    | _ -> None)

type t = {
  mutable map : Shard_map.t;
  conns : (int, Client.t) Hashtbl.t;
  seeds : (string * int) list;
}

(* Retry budgets: [ECONNREFUSED] retries per connection, and attempts of
   the routing loop per operation, whose first sleep is [backoff] seconds
   (doubled, capped at 200 ms). *)
let conn_retries = 20
let route_retries = 400
let backoff = 0.005

let map t = t.map

let drop_conn t i =
  match Hashtbl.find_opt t.conns i with
  | Some c ->
      (try Client.close c with Unix.Unix_error _ -> ());
      Hashtbl.remove t.conns i
  | None -> ()

let conn t i =
  match Hashtbl.find_opt t.conns i with
  | Some c -> c
  | None ->
      let host, port = Shard_map.addr t.map i in
      let c = Client.connect ~host ~port ~retries:conn_retries () in
      Hashtbl.replace t.conns i c;
      c

(* Run [f] on shard [i]'s cached connection.  A [Protocol_error] may
   leave the socket mid-frame, so the connection is dropped and the next
   use reconnects. *)
let on_shard t i f =
  match f (conn t i) with
  | r -> r
  | exception (Client.Protocol_error _ as e) ->
      drop_conn t i;
      raise e

(* Adopt [m] if it is fresher than what we hold, dropping cached
   connections whose index no longer points at the same address. *)
let adopt_map t m =
  if m.Shard_map.version > t.map.Shard_map.version then begin
    let stale =
      Hashtbl.fold
        (fun i _ acc ->
          if
            i >= Shard_map.n m
            || i < Shard_map.n t.map
               && Shard_map.addr t.map i <> Shard_map.addr m i
          then i :: acc
          else acc)
        t.conns []
    in
    List.iter (drop_conn t) stale;
    t.map <- m
  end

(* One map-fetch attempt against a single address; unreachable or
   non-shard peers simply contribute nothing. *)
let probe_map t (host, port) =
  match Client.connect ~host ~port ~retries:0 () with
  | exception Unix.Unix_error _ -> ()
  | exception Client.Unknown_host _ -> ()
  | c ->
      (match Client.get_map c with
      | m -> adopt_map t m
      | exception Client.Remote_failure _
      | exception Client.Protocol_error _
      | exception Client.Disconnected ->
          ());
      (try Client.close c with Unix.Unix_error _ -> ())

(* Refresh by polling every address we know (current map + seeds) and
   keeping the highest version seen — during a rolling map install
   different shards legitimately answer different versions. *)
let refresh_map t =
  let addrs =
    List.sort_uniq Stdlib.compare
      (Array.to_list t.map.Shard_map.shards @ t.seeds)
  in
  List.iter (probe_map t) addrs

let connect ~host ~port () =
  let t =
    {
      map = { Shard_map.version = 0; shards = [||]; pending = [] };
      conns = Hashtbl.create 8;
      seeds = [ (host, port) ];
    }
  in
  let c =
    match Client.connect ~host ~port ~retries:conn_retries () with
    | c -> c
    | exception Unix.Unix_error (err, _, _) ->
        raise
          (Unroutable
             (Printf.sprintf "seed shard %s:%d unreachable: %s" host port
                (Unix.error_message err)))
    | exception Client.Unknown_host h ->
        raise (Unroutable (Printf.sprintf "unknown host %s" h))
  in
  let m =
    Fun.protect
      ~finally:(fun () ->
        try Client.close c with Unix.Unix_error _ -> ())
      (fun () -> Client.get_map c)
  in
  adopt_map t m;
  if Shard_map.n t.map = 0 then
    raise (Unroutable "seed shard has an empty partition map");
  (* the seed may be mid-install behind its peers; start from the
     freshest map the cluster will answer with *)
  refresh_map t;
  t

let of_map map =
  { map; conns = Hashtbl.create 8; seeds = Array.to_list map.Shard_map.shards }

let close t =
  Hashtbl.iter
    (fun _ c -> try Client.close c with Unix.Unix_error _ -> ())
    t.conns;
  Hashtbl.reset t.conns

(* The routing loop every key-addressed request runs in.  A [Redirect]
   answer means our map is stale (refresh and retry), [Retry] means the
   key is fenced mid-rebalance (back off, refresh, retry), and a vanished
   shard (connection refused / dropped) is retried through [conn]'s
   reconnect — which is what rides out a SIGKILL + supervisor restart.
   The retry budget bounds all of it; exhausting it raises [Unroutable]
   rather than hanging forever. *)
let with_route t ~key req =
  let rec attempt left delay =
    if left <= 0 then
      raise
        (Unroutable (Printf.sprintf "key %S: retry budget exhausted" key))
    else
      let owner = Shard_map.owner t.map key in
      let grown = Float.min 0.2 (2. *. delay) in
      match Client.call (conn t owner) req with
      | Wire.Redirect _ ->
          refresh_map t;
          attempt (left - 1) delay
      | Wire.Retry _ ->
          Unix.sleepf delay;
          refresh_map t;
          attempt (left - 1) grown
      | resp -> resp
      | exception
          (Client.Disconnected | Wire.Connection_closed | Unix.Unix_error _) ->
          drop_conn t owner;
          Unix.sleepf delay;
          attempt (left - 1) grown
      | exception (Client.Protocol_error _ as e) ->
          drop_conn t owner;
          raise e
  in
  attempt route_retries backoff

(* Whole-cluster key listing: ask every shard.  [List_keys] is not
   ownership-gated, so each shard reports what it stores. *)
let list_keys t =
  let acc = ref [] in
  for i = 0 to Shard_map.n t.map - 1 do
    acc := on_shard t i Client.list_keys @ !acc
  done;
  List.sort_uniq String.compare !acc

let route t (req : Wire.request) =
  match req with
  | Put { key; _ }
  | Get { key; _ }
  | Fork { key; _ }
  | Merge { key; _ }
  | Track { key; _ }
  | List_branches { key } ->
      with_route t ~key req
  | List_keys -> Wire.Keys (list_keys t)
  | Get_version _ | Verify _ | Stats | Checkpoint | Pull_journal _
  | Fetch_chunks _ | Get_map | Set_map _ | Push_chunks _ | Restore_branch _
  | Export_key _ | Quit ->
      Wire.Error "not routable through the dispatcher"

let client t = Client.of_call (route t)

let put ?branch ?context t ~key value =
  Client.put ?branch ?context (client t) ~key value

let get ?branch t ~key = Client.get ?branch (client t) ~key

let fork t ~key ~from_branch ~new_branch =
  Client.fork (client t) ~key ~from_branch ~new_branch

let merge ?resolver t ~key ~target ~ref_branch =
  Client.merge ?resolver (client t) ~key ~target ~ref_branch

let stats t =
  List.init (Shard_map.n t.map) (fun i -> on_shard t i Client.stats)

let quit_all t =
  for i = 0 to Shard_map.n t.map - 1 do
    (try Client.quit_server (conn t i)
     with Client.Disconnected | Wire.Connection_closed | Unix.Unix_error _ ->
       ());
    drop_conn t i
  done;
  close t

(* ------------------------------------------------------------------ *)
(* Rebalance: grow the cluster by one shard with zero lost acknowledged
   writes while clients keep writing.

   The protocol is fence / copy / lift:

   1. Compute the keys whose owner changes between the current map and
      the grown one (mod-N rehash moves keys between existing shards
      too, not just onto the new one).
   2. Install map v+1 with those keys in [pending] on EVERY shard, the
      new one included.  From the moment a shard installs it, moved keys
      answer [Retry] on their new owner and [Redirect] on everyone else
      — no shard accepts a write for a moved key, so nothing can be
      acknowledged and then clobbered by the copy.  During the rolling
      install a moved key may briefly be accepted by its OLD owner
      (which still runs map v) — harmless, the copy reads from it after
      every shard is fenced, so those writes are carried over.
   3. Copy each moved key: branches from the old owner ([Export_key],
      ownership-exempt), then its chunk closure walked with
      {!Forkbase.Closure.walk} over [Fetch_chunks] on the old owner,
      each answer pushed to the new owner as it arrives, then
      [Restore_branch] per branch.
   4. Install map v+2 with an empty [pending] everywhere: fenced keys
      thaw on their new owner and every [Busy]-looping client retries
      through. *)

let install_map t m =
  Array.iteri
    (fun i (host, port) ->
      let reuse =
        i < Shard_map.n t.map && Shard_map.addr t.map i = (host, port)
      in
      let c =
        if reuse then conn t i
        else
          match Client.connect ~host ~port ~retries:conn_retries () with
          | c -> c
          | exception e ->
              raise
                (Rebalance_failed
                   (Printf.sprintf "connect %s:%d: %s" host port
                      (Printexc.to_string e)))
      in
      let fin () =
        if not reuse then
          try Client.close c with Unix.Unix_error _ -> ()
      in
      match Client.set_map c m with
      | () -> fin ()
      | exception e ->
          fin ();
          raise
            (Rebalance_failed
               (Printf.sprintf "set_map v%d on %s:%d: %s" m.Shard_map.version
                  host port (Printexc.to_string e))))
    m.Shard_map.shards

(* Walk the key's closure on [src], its old owner, pushing each fetched
   answer to [dst] as it arrives (one answer is within the push limits),
   then install the branch heads on [dst]. *)
let copy_key t ~old_map ~new_map key =
  let src = Shard_map.owner old_map key in
  let dst = Shard_map.owner new_map key in
  let branches = on_shard t src (Client.export_key ~key) in
  let fetch cids =
    let encs =
      match Client.fetch_chunks (conn t src) cids with
      | encs -> encs
      | exception
          ((Client.Disconnected | Client.Protocol_error _
           | Wire.Connection_closed | Unix.Unix_error _) as e) ->
          drop_conn t src;
          raise
            (Rebalance_failed
               (Printf.sprintf "fetch from shard %d: %s" src
                  (Printexc.to_string e)))
    in
    let got =
      List.map
        (fun enc ->
          let chunk = Chunk.decode enc in
          (Chunk.cid chunk, chunk))
        encs
    in
    if encs <> [] then on_shard t dst (fun c -> Client.push_chunks c encs);
    got
  in
  (match Forkbase.Closure.walk ~fetch (List.map snd branches) with
  | [] -> ()
  | missing ->
      raise
        (Rebalance_failed
           (Printf.sprintf "%d chunks unresolvable from shard %d"
              (List.length missing) src)));
  List.iter
    (fun (branch, uid) ->
      on_shard t dst (fun c -> Client.restore_branch c ~key ~branch uid))
    branches

let add_shard t ~host ~port =
  refresh_map t;
  let cur = t.map in
  let n = Shard_map.n cur in
  if n = 0 then raise (Rebalance_failed "cannot grow an empty map");
  if cur.Shard_map.pending <> [] then
    (* a fence is installed.  If it fences in exactly the shard we are
       being asked to add, a previous add_shard died between fence and
       lift — resume it: re-copy the pending keys (pushes and restores
       are idempotent) and lift the fence.  Any other shard: a
       different rebalance really is in flight. *)
    if n >= 2 && Shard_map.addr cur (n - 1) = (host, port) then begin
      let old_map =
        { cur with Shard_map.shards = Array.sub cur.Shard_map.shards 0 (n - 1) }
      in
      let grown = { cur with Shard_map.pending = [] } in
      List.iter
        (fun key -> copy_key t ~old_map ~new_map:grown key)
        cur.Shard_map.pending;
      let final = { grown with Shard_map.version = cur.Shard_map.version + 1 } in
      install_map t final;
      adopt_map t final;
      List.length cur.Shard_map.pending
    end
    else
      raise
        (Rebalance_failed "a different rebalance is in flight (pending keys)")
  else begin
    let old_map = cur in
    let shards = Array.append old_map.Shard_map.shards [| (host, port) |] in
    let grown =
      { Shard_map.version = old_map.Shard_map.version + 1; shards; pending = [] }
    in
    let keys = list_keys t in
    let moved =
      List.filter
        (fun key -> Shard_map.owner grown key <> Shard_map.owner old_map key)
        keys
    in
    let fence = { grown with Shard_map.pending = moved } in
    install_map t fence;
    adopt_map t fence;
    List.iter (fun key -> copy_key t ~old_map ~new_map:grown key) moved;
    let final =
      { grown with Shard_map.version = old_map.Shard_map.version + 2 }
    in
    install_map t final;
    adopt_map t final;
    List.length moved
  end
