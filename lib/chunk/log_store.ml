type entry = { off : int; len : int }

type t = {
  file : string;
  oc : out_channel;
  ic : in_channel;
  index : entry Cid.Tbl.t;
  stats : Chunk_store.stats;
  sync_every : int;
  mutable unsynced : int;
  mutable tail : int; (* logical end of log *)
}

(* Read one varint from [ic]; None at clean EOF.  Bounded like
   {!Fbutil.Codec.read_varint}: a header whose continuation bits run past
   shift 56, or that decodes negative, cannot be a record length — without
   the bound a corrupt header can decode to a negative length that slips
   past the torn-tail guard and crashes [Bytes.create] with
   [Invalid_argument] instead of reporting corruption. *)
let read_varint_opt ic =
  match input_char ic with
  | exception End_of_file -> None
  | c0 ->
      let rec loop shift acc b =
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b land 0x80 = 0 then
          if acc < 0 then
            raise (Fbutil.Codec.Corrupt "negative varint length")
          else acc
        else if shift >= 56 then
          raise (Fbutil.Codec.Corrupt "varint length too long")
        else loop (shift + 7) acc (Char.code (input_char ic))
      in
      Some (loop 0 0 (Char.code c0))

exception
  Corrupt_log of { file : string; off : int; reason : string }

let replay t =
  seek_in t.ic 0;
  let file_len = in_channel_length t.ic in
  let continue = ref true in
  while !continue do
    let record_start = pos_in t.ic in
    let torn () =
      t.tail <- record_start;
      continue := false
    in
    match read_varint_opt t.ic with
    | None -> torn ()
    | exception End_of_file -> torn () (* tail torn mid-header *)
    | exception Fbutil.Codec.Corrupt reason ->
        (* A complete-but-implausible header is bit rot, not a torn tail:
           fail loudly like a rotten record body. *)
        raise (Corrupt_log { file = t.file; off = record_start; reason })
    | Some len ->
        (* A length overrunning the file is a torn tail; detecting it here
           keeps a corrupt varint from forcing a giant allocation. *)
        if len > file_len - pos_in t.ic then torn ()
        else begin
          let body = Bytes.create len in
          really_input t.ic body 0 len;
          match Chunk.decode (Bytes.unsafe_to_string body) with
          | exception Fbutil.Codec.Corrupt reason ->
              (* length-complete record with a rotten body: unlike a torn
                 tail this is data loss mid-log, so fail loudly and name
                 the spot instead of silently dropping the record (and
                 everything after it). *)
              raise (Corrupt_log { file = t.file; off = record_start; reason })
          | chunk ->
              let cid = Chunk.cid chunk in
              let data_off = pos_in t.ic - len in
              if not (Cid.Tbl.mem t.index cid) then begin
                t.stats.chunks <- t.stats.chunks + 1;
                t.stats.bytes <- t.stats.bytes + len
              end;
              Cid.Tbl.replace t.index cid { off = data_off; len };
              t.tail <- pos_in t.ic
        end
  done

let open_ ?(sync_every = 512) file =
  (* Ensure the file exists before opening the read side. *)
  let oc0 = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 file in
  close_out oc0;
  let ic = open_in_gen [ Open_rdonly; Open_binary ] 0o644 file in
  let t =
    {
      file;
      oc = stdout (* replaced below, after the torn tail is dropped *);
      ic;
      index = Cid.Tbl.create 4096;
      stats = Chunk_store.fresh_stats ();
      sync_every;
      unsynced = 0;
      tail = 0;
    }
  in
  (try replay t
   with e ->
     close_in ic;
     raise e);
  (* A crash mid-append can leave a torn record after [tail]; truncate it
     so new appends continue from the last complete record.  The read
     channel may still buffer bytes from the dropped tail, so reopen it:
     a [seek_in] landing inside that buffer would otherwise serve stale
     bytes where freshly appended records now live. *)
  if t.tail < in_channel_length t.ic then Unix.truncate file t.tail;
  close_in ic;
  let ic = open_in_gen [ Open_rdonly; Open_binary ] 0o644 file in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 file in
  { t with ic; oc }

let flush t = Stdlib.flush t.oc

(* Durability point: push buffered appends to the OS and then to the device.
   [flush] alone survives a process crash; [sync] also survives power loss. *)
let sync t =
  Stdlib.flush t.oc;
  Unix.fsync (Unix.descr_of_out_channel t.oc);
  t.unsynced <- 0

let close t =
  (* fsync unconditionally: a closed log must be durable no matter what
     [sync_every] batching was in effect while it was open. *)
  sync t;
  close_out t.oc;
  close_in t.ic

(* Simulated crash: release the file without the close-time fsync or any
   other graceful-shutdown work.  The write path flushes to the OS at every
   operation boundary, so this leaves on disk exactly what a SIGKILL
   between operations would — deterministically, and inside one process. *)
let crash t =
  Stdlib.flush t.oc;
  close_out_noerr t.oc;
  close_in_noerr t.ic

let file_size t = t.tail

let put t chunk =
  let cid = Chunk.cid chunk in
  t.stats.puts <- t.stats.puts + 1;
  (if Cid.Tbl.mem t.index cid then t.stats.dedup_hits <- t.stats.dedup_hits + 1
   else begin
     let encoded = Chunk.encode chunk in
     let len = String.length encoded in
     let header = Buffer.create 4 in
     Fbutil.Codec.varint header len;
     let data_off = t.tail + Buffer.length header in
     Buffer.output_buffer t.oc header;
     output_string t.oc encoded;
     t.tail <- data_off + len;
     Cid.Tbl.replace t.index cid { off = data_off; len };
     t.stats.chunks <- t.stats.chunks + 1;
     t.stats.bytes <- t.stats.bytes + len;
     t.unsynced <- t.unsynced + 1;
     if t.sync_every > 0 && t.unsynced >= t.sync_every then sync t
   end);
  cid

let get t cid =
  t.stats.gets <- t.stats.gets + 1;
  match Cid.Tbl.find_opt t.index cid with
  | None ->
      t.stats.misses <- t.stats.misses + 1;
      None
  | Some { off; len } ->
      (* The write channel may still buffer the record. *)
      Stdlib.flush t.oc;
      seek_in t.ic off;
      let body = Bytes.create len in
      really_input t.ic body 0 len;
      Some (Chunk.decode (Bytes.unsafe_to_string body))

let store t =
  {
    Chunk_store.put = put t;
    get = get t;
    mem = Cid.Tbl.mem t.index;
    stats = (fun () -> t.stats);
  }
