module Wire = Fbremote.Wire
module Client = Fbremote.Client
module Server = Fbremote.Server
module Chunk = Fbchunk.Chunk
module Cid = Fbchunk.Cid
module Store = Fbchunk.Chunk_store
module Fobject = Forkbase.Fobject
module Value = Fbtypes.Value
module Replica = Fbreplica.Replica

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
  conn_retries : int;
  route_retries : int;
  backoff : float;
  cfg : Fbtree.Tree_config.t;
}

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
      let c = Client.connect ~host ~port ~retries:t.conn_retries () in
      Hashtbl.replace t.conns i c;
      c

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

let connect ?(conn_retries = 20) ?(route_retries = 400) ?(backoff = 0.005)
    ?(cfg = Fbtree.Tree_config.default) ~host ~port () =
  let t =
    {
      map = { Shard_map.version = 0; shards = [||]; pending = [] };
      conns = Hashtbl.create 8;
      seeds = [ (host, port) ];
      conn_retries;
      route_retries;
      backoff;
      cfg;
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

let of_map ?(conn_retries = 20) ?(route_retries = 400) ?(backoff = 0.005)
    ?(cfg = Fbtree.Tree_config.default) map =
  {
    map;
    conns = Hashtbl.create 8;
    seeds = Array.to_list map.Shard_map.shards;
    conn_retries;
    route_retries;
    backoff;
    cfg;
  }

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
  in
  attempt t.route_retries t.backoff

(* Whole-cluster key listing: ask every shard.  [List_keys] is not
   ownership-gated, so each shard reports what it stores. *)
let list_keys t =
  let acc = ref [] in
  for i = 0 to Shard_map.n t.map - 1 do
    acc := Client.list_keys (conn t i) @ !acc
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
  List.init (Shard_map.n t.map) (fun i -> Client.stats (conn t i))

let quit_all t =
  for i = 0 to Shard_map.n t.map - 1 do
    (try Client.quit_server (conn t i)
     with Client.Disconnected | Wire.Connection_closed | Unix.Unix_error _ ->
       ());
    drop_conn t i
  done;
  close t

(* ------------------------------------------------------------------ *)
(* Chunk movement: closure pulls and batched pushes, shared by the
   rebalancer and the two-layer scatter/gather paths. *)

(* Batch caps: the request count cap mirrors [Server.max_fetch_chunks];
   the byte cap keeps a batch of large blob leaves far under the 4 MiB
   frame limit. *)
let batch_chunks = Server.max_fetch_chunks
let batch_bytes = 1 lsl 20

let push_chunks_batched t ~dst encs =
  let flush batch =
    match batch with
    | [] -> ()
    | _ -> Client.push_chunks (conn t dst) (List.rev batch)
  in
  let batch, _, _ =
    List.fold_left
      (fun (batch, n, bytes) enc ->
        let sz = String.length enc in
        if n + 1 > batch_chunks || (bytes + sz > batch_bytes && n > 0) then begin
          flush batch;
          ([ enc ], 1, sz)
        end
        else (enc :: batch, n + 1, bytes + sz))
      ([], 0, 0) encs
  in
  flush batch

(* Fetch [cids] preferring shard [src], falling back to every other shard
   for whatever [src] does not hold (two-layer closures are spread by
   design).  Returns decoded chunks paired with their encodings; raises
   [Rebalance_failed] if any cid is nowhere. *)
let fetch_chunks_anywhere t ~src cids =
  let want = Cid.Tbl.create (List.length cids) in
  List.iter (fun cid -> Cid.Tbl.replace want cid ()) cids;
  let got = ref [] in
  let take encs =
    List.iter
      (fun enc ->
        let chunk = Chunk.decode enc in
        let cid = Chunk.cid chunk in
        if Cid.Tbl.mem want cid then begin
          Cid.Tbl.remove want cid;
          got := (chunk, enc) :: !got
        end)
      encs
  in
  let ask i =
    if Cid.Tbl.length want > 0 then begin
      let missing = Cid.Tbl.fold (fun cid () acc -> cid :: acc) want [] in
      match Client.fetch_chunks (conn t i) missing with
      | encs -> take encs
      | exception (Client.Disconnected | Wire.Connection_closed) ->
          drop_conn t i
      | exception Unix.Unix_error _ -> drop_conn t i
    end
  in
  ask src;
  for i = 0 to Shard_map.n t.map - 1 do
    if i <> src then ask i
  done;
  if Cid.Tbl.length want > 0 then
    raise
      (Rebalance_failed
         (Printf.sprintf "%d chunks unresolvable from any shard"
            (Cid.Tbl.length want)));
  List.rev !got

(* The whole closure of [roots] (meta bases + POS-Tree children, via
   {!Fbreplica.Replica.chunk_children}), as encoded chunks, fetched in
   bounded batches. *)
let pull_closure t ~src roots =
  let seen = Cid.Tbl.create 256 in
  let frontier = Queue.create () in
  List.iter
    (fun cid ->
      if not (Cid.Tbl.mem seen cid) then begin
        Cid.Tbl.replace seen cid ();
        Queue.push cid frontier
      end)
    roots;
  let out = ref [] in
  while not (Queue.is_empty frontier) do
    let batch = ref [] in
    let n = ref 0 in
    while !n < batch_chunks && not (Queue.is_empty frontier) do
      batch := Queue.pop frontier :: !batch;
      incr n
    done;
    List.iter
      (fun (chunk, enc) ->
        out := enc :: !out;
        List.iter
          (fun child ->
            if not (Cid.Tbl.mem seen child) then begin
              Cid.Tbl.replace seen child ();
              Queue.push child frontier
            end)
          (Replica.chunk_children chunk))
      (fetch_chunks_anywhere t ~src !batch)
  done;
  List.rev !out

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
      ownership-exempt), chunk closure via batched [Fetch_chunks], push
      to the new owner, then [Restore_branch] per branch.
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
          match Client.connect ~host ~port ~retries:t.conn_retries () with
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

let copy_key t ~old_map ~new_map key =
  let src = Shard_map.owner old_map key in
  let dst = Shard_map.owner new_map key in
  let branches = Client.export_key (conn t src) ~key in
  let roots = List.map snd branches in
  push_chunks_batched t ~dst (pull_closure t ~src roots);
  List.iter
    (fun (branch, uid) -> Client.restore_branch (conn t dst) ~key ~branch uid)
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

(* ------------------------------------------------------------------ *)
(* Two-layer mode (§4.6): value chunks partitioned across the pool by
   cid, meta chunks homed with their key's servlet.  The dispatcher does
   the POS-Tree construction locally over a buffering store, scatters
   the value chunks to their cid-owners, and installs the head at the
   home shard — so each shard's store holds exactly the slice the
   in-process simulation (lib/cluster, Two_layer) assigns it, which is
   what the differential test pins. *)

(* A store that buffers every put in insertion order and answers gets
   from the buffer; the building blocks of a client-side scatter. *)
let buffer_store () =
  let tbl = Cid.Tbl.create 64 in
  let order = ref [] in
  let stats = Store.fresh_stats () in
  let store =
    {
      Store.put =
        (fun chunk ->
          let cid = Chunk.cid chunk in
          if not (Cid.Tbl.mem tbl cid) then begin
            Cid.Tbl.replace tbl cid chunk;
            order := chunk :: !order
          end;
          cid);
      get = (fun cid -> Cid.Tbl.find_opt tbl cid);
      mem = (fun cid -> Cid.Tbl.mem tbl cid);
      stats = (fun () -> stats);
    }
  in
  (store, fun () -> List.rev !order)

let head_of branches ~branch =
  List.assoc_opt branch branches

(* Current base object of [key]@[branch], loaded from the home shard's
   meta chunks. *)
let base_objects t ~key ~branch =
  let branches = Client.list_branches (client t) ~key in
  match head_of branches ~branch with
  | None -> []
  | Some uid -> (
      let src = Shard_map.owner t.map key in
      match fetch_chunks_anywhere t ~src [ uid ] with
      | [ (chunk, _) ] -> [ Fobject.of_chunk chunk ]
      | _ -> [])

let put_scattered ?(branch = "master") ?(context = "") t ~key content =
  let bases = base_objects t ~key ~branch in
  let store, drain = buffer_store () in
  let blob = Value.Blob (Fbtypes.Fblob.create store t.cfg content) in
  let obj = Fobject.of_value ~key ~context ~bases blob in
  let meta = Fobject.to_chunk obj in
  let uid = Chunk.cid meta in
  let home = Shard_map.owner t.map key in
  (* scatter the value chunks by cid owner *)
  let per_shard = Hashtbl.create 8 in
  List.iter
    (fun chunk ->
      let owner = Shard_map.chunk_owner t.map (Chunk.cid chunk) in
      let prev =
        match Hashtbl.find_opt per_shard owner with
        | Some l -> l
        | None -> []
      in
      Hashtbl.replace per_shard owner (Chunk.encode chunk :: prev))
    (drain ());
  Hashtbl.iter
    (fun owner encs -> push_chunks_batched t ~dst:owner (List.rev encs))
    per_shard;
  (* meta is home-local (the paper's "meta chunks stay with the servlet") *)
  push_chunks_batched t ~dst:home [ Chunk.encode meta ];
  Client.restore_branch
    (Client.of_call (with_route t ~key))
    ~key ~branch uid;
  uid

(* A read-through store over the cluster: cache first, then the chunk's
   cid-owner, then anywhere. *)
let cluster_store t ~home =
  let cache = Cid.Tbl.create 64 in
  let stats = Store.fresh_stats () in
  {
    Store.put =
      (fun chunk ->
        let cid = Chunk.cid chunk in
        Cid.Tbl.replace cache cid chunk;
        cid);
    get =
      (fun cid ->
        match Cid.Tbl.find_opt cache cid with
        | Some chunk -> Some chunk
        | None -> (
            let preferred =
              if Shard_map.n t.map = 0 then home
              else Shard_map.chunk_owner t.map cid
            in
            match fetch_chunks_anywhere t ~src:preferred [ cid ] with
            | [ (chunk, _) ] ->
                Cid.Tbl.replace cache cid chunk;
                Some chunk
            | _ -> None
            | exception Rebalance_failed _ -> None));
    mem = (fun cid -> Cid.Tbl.mem cache cid);
    stats = (fun () -> stats);
  }

let get_scattered ?(branch = "master") t ~key =
  let branches = Client.list_branches (client t) ~key in
  match head_of branches ~branch with
  | None -> None
  | Some uid -> (
      let home = Shard_map.owner t.map key in
      let store = cluster_store t ~home in
      match Fobject.load store uid with
      | None -> None
      | Some obj -> Some (Fobject.value store t.cfg obj))
