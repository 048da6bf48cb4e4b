(* In-process replays for the traced run.  A db is built exactly as the
   served one was (same preload and warm-up, through [Server.handle]), then
   the next operations of the same streams are replayed with spans on, in
   one of two ways:

   - [Served]: the request goes through the codec and [Server.handle] as a
     server would take it (client encode, server decode, handle, server
     encode, client decode).
   - [Decomposed]: the layers are called one at a time — [Db.blob] builds
     the POS-Tree, [Db.put]/[Db.fork] commit the built value, [Db.get]
     then [Server.to_wire_value] read, [Db.merge] merges — and after each
     put the chunks it handed the store are hashed again with
     [Sha256.digest] and its bytes are scanned for chunk boundaries with
     [Rolling], to time those two steps on their own.

   Every store call is timed by a wrapper record around the db's
   [Chunk_store.t].  On a durable store every write is followed by
   [Persist.sync], timed as its own span. *)

module Wire = Fbremote.Wire
module Server = Fbremote.Server
module Persist = Fbpersist.Persist
module Db = Forkbase.Db
module Chunk_store = Fbchunk.Chunk_store
module Tree_config = Fbtree.Tree_config

type mode = Served | Decomposed

type store = Memory | Durable of string

type result = {
  spans : Spans.span list;
  kinds : Gen.kind array;  (** kind of each replayed op, by op id *)
  wire_bytes : int;  (** request + response frames, header included *)
  failed : int;
  store_puts : int;
  store_dedup_hits : int;
  journal_bytes : int;
  log_bytes : int;
  user_bytes : int;
  hashed_bytes : int;  (** bytes re-hashed with [Sha256.digest] *)
  scanned_bytes : int;  (** bytes re-scanned with [Rolling] *)
}

(* Times every store call and remembers the chunks handed to [put]. *)
let timing_store sp handed (inner : Chunk_store.t) : Chunk_store.t =
  {
    inner with
    put =
      (fun c ->
        if sp.Spans.on then handed := c :: !handed;
        Spans.with_span sp "chunk_store.put" (fun () -> inner.put c));
    get = (fun cid -> Spans.with_span sp "chunk_store.get" (fun () -> inner.get cid));
  }

(* The boundary scan the POS-Tree runs over a blob's bytes. *)
let scan_boundaries cfg s =
  let roll = Fbhash.Rolling.any cfg.Tree_config.rolling ~window:cfg.Tree_config.window in
  let mask = (1 lsl cfg.Tree_config.leaf_bits) - 1 in
  let n = String.length s and off = ref 0 in
  while !off < n do
    match
      Fbhash.Rolling.any_find_boundary roll s ~off:!off ~chunk_size_before:0
        ~min_size:cfg.Tree_config.min_leaf_bytes
        ~max_size:cfg.Tree_config.max_leaf_bytes ~mask
    with
    | Some consumed ->
        off := !off + consumed;
        Fbhash.Rolling.any_reset roll
    | None -> off := n
  done

let decomposed sp db (op : Gen.op) handed ~hashed ~scanned =
  let cfg = Db.cfg db in
  let ok =
    match op.req with
    | Wire.Put { key; branch; context; value } ->
        let v =
          Spans.with_span sp "pos_tree.build" (fun () ->
              match value with
              | Wire.Blob s -> Db.blob db s
              | Wire.Str s -> Db.str s
              | _ -> invalid_arg "decomposed: value kind")
        in
        ignore (Spans.with_span sp "db.commit" (fun () -> Db.put ~branch ~context db ~key v)
          : Fbchunk.Cid.t);
        true
    | Wire.Get { key; branch } -> (
        match Spans.with_span sp "db.get" (fun () -> Db.get ~branch db ~key) with
        | Ok v ->
            Some (Spans.with_span sp "pos_tree.read" (fun () -> Server.to_wire_value v))
            = op.expect
        | Error _ -> false)
    | Wire.Fork { key; from_branch; new_branch } ->
        Result.is_ok
          (Spans.with_span sp "db.commit" (fun () -> Db.fork db ~key ~from_branch ~new_branch))
    | Wire.Merge { key; target; ref_branch; resolver = _ } ->
        Result.is_ok
          (Spans.with_span sp "db.merge" (fun () ->
               Db.merge ~resolver:Forkbase.Merge.Choose_right db ~key ~target
                 ~ref_:(`Branch ref_branch)))
    | _ -> invalid_arg "decomposed: request kind"
  in
  (* After the layer calls: re-hash what the op stored, re-scan what it put. *)
  List.iter
    (fun c ->
      let bytes = Fbchunk.Chunk.encode c in
      hashed := !hashed + String.length bytes;
      let t0 = Spans.now () in
      ignore (Fbhash.Sha256.digest bytes : string);
      Spans.record sp ~name:"sha256.digest" ~t0 ~t1:(Spans.now ()))
    (List.rev !handed);
  (match op.req with
  | Wire.Put { value = Wire.Blob s; _ } ->
      scanned := !scanned + String.length s;
      let t0 = Spans.now () in
      scan_boundaries cfg s;
      Spans.record sp ~name:"rolling.scan" ~t0 ~t1:(Spans.now ())
  | _ -> ());
  (ok, 0)

let served sp db (op : Gen.op) =
  let body = Spans.with_span sp "wire.encode_request" (fun () -> Wire.encode_request op.req) in
  let req = Spans.with_span sp "wire.decode_request" (fun () -> Wire.decode_request body) in
  let resp =
    Spans.with_span sp ("server.handle." ^ Gen.kind_name op.kind) (fun () -> Server.handle db req)
  in
  let rbody = Spans.with_span sp "wire.encode_response" (fun () -> Wire.encode_response resp) in
  let resp = Spans.with_span sp "wire.decode_response" (fun () -> Wire.decode_response rbody) in
  (Gen.check op resp, String.length body + String.length rbody + (2 * Wire.header_bytes))

(* [streams] are fresh generators for the served run's streams; [warmup]
   is the warm-up length per stream.  Replays [count] ops after the
   warm-up, taking the streams in turn. *)
let run ~mode ~store ~streams ~warmup ~count =
  let sp = Spans.create () in
  let handed = ref [] in
  let p, db =
    match store with
    | Memory -> (None, Db.create (timing_store sp handed (Chunk_store.mem_store ())))
    | Durable dir ->
        (* opened as the durable server opens its store *)
        let p =
          Persist.open_db ~journal_sync_every:1 ~wrap_store:(timing_store sp handed) dir
        in
        Persist.set_deferred_sync p true;
        (Some p, Persist.db p)
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Persist.close p)
    (fun () ->
      let build op =
        if not (Gen.check op (Server.handle db op.Gen.req)) then
          failwith ("replay: building the db failed at a " ^ Gen.kind_name op.Gen.kind)
      in
      Array.iter (fun (g : Gen.t) -> List.iter build g.preload) streams;
      Array.iter (fun (g : Gen.t) -> for _ = 1 to warmup do build (g.next ()) done) streams;
      let st0 = Chunk_store.(let s = (Db.store db).stats () in (s.puts, s.dedup_hits)) in
      let size f = Option.fold ~none:0 ~some:f p in
      let j0 = size Persist.journal_size and l0 = size Persist.chunk_log_size in
      sp.on <- true;
      let kinds = Array.make count Gen.Put in
      let failed = ref 0 and bytes = ref 0 and user = ref 0 in
      let hashed = ref 0 and scanned = ref 0 in
      for i = 0 to count - 1 do
        let op = streams.(i mod Array.length streams).next () in
        Spans.set_op sp i;
        handed := [];
        let ok, b =
          Spans.with_span sp ("op." ^ Gen.kind_name op.kind) (fun () ->
              let r =
                match mode with
                | Served -> served sp db op
                | Decomposed -> decomposed sp db op handed ~hashed ~scanned
              in
              (* what the server's group commit does for a lone writer *)
              (match p with
              | Some p when op.kind <> Gen.Get ->
                  Spans.with_span sp "persist.sync" (fun () -> Persist.sync p)
              | _ -> ());
              r)
        in
        if not ok then incr failed;
        bytes := !bytes + b;
        user := !user + op.user_bytes;
        kinds.(i) <- op.kind
      done;
      sp.on <- false;
      let puts, hits = Chunk_store.(let s = (Db.store db).stats () in (s.puts, s.dedup_hits)) in
      {
        spans = Spans.spans sp;
        kinds;
        wire_bytes = !bytes;
        failed = !failed;
        store_puts = puts - fst st0;
        store_dedup_hits = hits - snd st0;
        journal_bytes = size Persist.journal_size - j0;
        log_bytes = size Persist.chunk_log_size - l0;
        user_bytes = !user;
        hashed_bytes = !hashed;
        scanned_bytes = !scanned;
      })
