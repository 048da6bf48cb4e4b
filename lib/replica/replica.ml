module Chunk = Fbchunk.Chunk
module Store = Fbchunk.Chunk_store
module Journal = Fbpersist.Journal
module Persist = Fbpersist.Persist
module Client = Fbremote.Client
module Server = Fbremote.Server
module Wire = Fbremote.Wire

let pull_batch = 256

let journal_hooks p =
  {
    Server.j_seq = (fun () -> Persist.journal_seq p);
    j_bytes = (fun () -> Persist.journal_size p);
    j_pull =
      (fun ~from_seq ->
        Persist.pull_entries p ~from_seq ~max_entries:pull_batch
        |> List.map (fun (seq, records) -> Journal.encode_entry ~seq records));
  }

type t = {
  persist : Persist.t;
  host : string;
  port : int;
  retries : int;
  mutable client : Client.t option;
  mutable primary_seq : int;
  mutable pulls : int;
  mutable entries_applied : int;
  mutable chunks_fetched : int;
}

type progress = Applied of int | Caught_up | Primary_gone

let open_follower ?cfg ?wrap_store ?(retries = 3) ~dir ~host ~port () =
  let persist = Persist.open_db ?cfg ?wrap_store dir in
  {
    persist;
    host;
    port;
    retries;
    client = None;
    primary_seq = 0;
    pulls = 0;
    entries_applied = 0;
    chunks_fetched = 0;
  }

let conn t =
  match t.client with
  | Some c -> c
  | None ->
      let c =
        Client.connect ~host:t.host ~port:t.port ~retries:t.retries ()
      in
      t.client <- Some c;
      c

let drop_conn t =
  match t.client with
  | Some c ->
      (try Client.close c with Unix.Unix_error _ -> ());
      t.client <- None
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Chunk-closure backfill.

   A journal entry may only be applied once every chunk its records
   reference — transitively — is locally resolvable, or the follower
   would accept a branch head it cannot read.  The closure walk asks the
   local store first, so it descends through chunks already present (a
   crash that persisted a parent without its children self-heals on the
   next sync); the rest is fetched from the primary and stored. *)

let fetch_through t cids =
  let store = Forkbase.Db.store (Persist.db t.persist) in
  let local, absent =
    List.partition_map
      (fun cid ->
        match store.Store.get cid with
        | Some chunk -> Either.Left (cid, chunk)
        | None -> Either.Right cid)
      cids
  in
  let fetched =
    match absent with
    | [] -> []
    | _ ->
        List.map
          (fun enc ->
            let chunk = Chunk.decode enc in
            t.chunks_fetched <- t.chunks_fetched + 1;
            (store.Store.put chunk, chunk))
          (Client.fetch_chunks (conn t) absent)
  in
  local @ fetched

(* Closure roots of one journal record.  For a checkpoint snapshot only
   the branch heads are roots: [snap_known] may reference versions the
   primary has already compacted away, so fetching them would miss
   forever. *)
let record_roots = function
  | Journal.Mutation m -> (
      match m with
      | Forkbase.Db.Set_head { uid; _ } -> [ uid ]
      | Forkbase.Db.Record_object { uid; _ } -> [ uid ]
      | Forkbase.Db.Rename _ | Forkbase.Db.Remove_branch _ -> []
      | Forkbase.Db.Replace_untagged { add; _ } -> [ add ])
  | Journal.Checkpoint tables ->
      List.concat_map
        (fun (_key, snap) ->
          List.map snd snap.Forkbase.Branch_table.snap_tagged
          @ snap.Forkbase.Branch_table.snap_untagged)
        tables

exception Stale_batch
(* The primary no longer holds a chunk this batch needs: the entries
   referencing it were compacted away between the pull and the fetch.
   Drop the rest of the batch — the next pull yields the checkpoint
   snapshot that superseded them. *)

let sync_step t =
  match
    let c = conn t in
    let local = Persist.journal_seq t.persist in
    let primary_seq, entries = Client.pull_journal c ~from_seq:local in
    t.primary_seq <- primary_seq;
    t.pulls <- t.pulls + 1;
    if entries = [] then Caught_up
    else begin
      let applied = ref 0 in
      (try
         List.iter
           (fun body ->
             let seq, records = Journal.decode_entry body in
             if seq > Persist.journal_seq t.persist then begin
               if
                 Forkbase.Closure.walk ~fetch:(fetch_through t)
                   (List.concat_map record_roots records)
                 <> []
               then raise Stale_batch;
               Persist.apply_replicated t.persist ~seq records;
               incr applied;
               t.entries_applied <- t.entries_applied + 1
             end)
           entries
       with Stale_batch -> ());
      Applied !applied
    end
  with
  | result -> result
  | exception
      ( Client.Disconnected | Client.Unknown_host _ | Client.Remote_failure _
      | Unix.Unix_error _ | Wire.Connection_closed ) ->
      drop_conn t;
      Primary_gone
  | exception (Client.Protocol_error _ as e) ->
      drop_conn t;
      raise e

exception Not_converging
exception Primary_unreachable

let () =
  Printexc.register_printer (function
    | Not_converging ->
        Some "Replica.sync_until_caught_up: not converging"
    | Primary_unreachable ->
        Some "Replica.sync_until_caught_up: primary unreachable"
    | _ -> None)

let sync_until_caught_up ?(max_rounds = 1000) t =
  let rec go rounds =
    if rounds <= 0 then raise Not_converging
    else
      match sync_step t with
      | Caught_up -> ()
      | Applied _ -> go (rounds - 1)
      | Primary_gone -> raise Primary_unreachable
  in
  go max_rounds

let seq t = Persist.journal_seq t.persist
let lag t = max 0 (t.primary_seq - seq t)

type counters = { pulls : int; entries_applied : int; chunks_fetched : int }

let counters (t : t) =
  {
    pulls = t.pulls;
    entries_applied = t.entries_applied;
    chunks_fetched = t.chunks_fetched;
  }

let db t = Persist.db t.persist

let close t =
  drop_conn t;
  Persist.close t.persist

let crash t =
  drop_conn t;
  Persist.crash t.persist

let serve ?config t listen_fd =
  Server.serve
    ~journal:(journal_hooks t.persist)
    ~redirect:(t.host, t.port)
    ~tick:(fun () -> ignore (sync_step t))
    ?config (Persist.db t.persist) listen_fd

let serve_primary ?config ?shard p listen_fd =
  Persist.set_deferred_sync p true;
  Server.serve ?config ?shard
    ~checkpoint:(fun () -> Persist.compact p)
    ~journal:(journal_hooks p)
    ~group_commit:(fun () -> Persist.sync p)
    (Persist.db p) listen_fd
