type stats = {
  mutable puts : int;
  mutable dedup_hits : int;
  mutable gets : int;
  mutable misses : int;
  mutable chunks : int;
  mutable bytes : int;
}

let fresh_stats () =
  { puts = 0; dedup_hits = 0; gets = 0; misses = 0; chunks = 0; bytes = 0 }

let pp_stats fmt s =
  Format.fprintf fmt
    "chunks=%d bytes=%d puts=%d dedup=%d gets=%d misses=%d" s.chunks s.bytes
    s.puts s.dedup_hits s.gets s.misses

type t = {
  put : Chunk.t -> Cid.t;
  get : Cid.t -> Chunk.t option;
  mem : Cid.t -> bool;
  stats : unit -> stats;
}

exception Missing_chunk of Cid.t
exception Corrupt_chunk of Cid.t
exception Injected_fault of string

let get_exn t cid =
  match t.get cid with Some c -> c | None -> raise (Missing_chunk cid)

let mem_store () =
  let tbl : Chunk.t Cid.Tbl.t = Cid.Tbl.create 1024 in
  let stats = fresh_stats () in
  let put chunk =
    let cid = Chunk.cid chunk in
    stats.puts <- stats.puts + 1;
    if Cid.Tbl.mem tbl cid then stats.dedup_hits <- stats.dedup_hits + 1
    else begin
      Cid.Tbl.replace tbl cid chunk;
      stats.chunks <- stats.chunks + 1;
      stats.bytes <- stats.bytes + Chunk.byte_size chunk
    end;
    cid
  in
  let get cid =
    stats.gets <- stats.gets + 1;
    match Cid.Tbl.find_opt tbl cid with
    | Some _ as r -> r
    | None ->
        stats.misses <- stats.misses + 1;
        None
  in
  { put; get; mem = Cid.Tbl.mem tbl; stats = (fun () -> stats) }

let verifying inner =
  let get cid =
    match inner.get cid with
    | None -> None
    | Some chunk ->
        if Cid.equal (Chunk.cid chunk) cid then Some chunk
        else raise (Corrupt_chunk cid)
  in
  { inner with get }

type fault = [ `Pass | `Fail | `Drop | `Corrupt of int ]

(* Flip one payload bit of a chunk, never the tag byte: the result still
   decodes but no longer rehashes to the cid that referenced it — the
   bit-rot shape the tamper checks must catch.  A chunk with an empty
   payload has nothing to flip; the caller falls back to dropping it. *)
let flip_payload_byte chunk off =
  let enc = Chunk.encode chunk in
  let len = String.length enc in
  if len < 2 then None
  else begin
    let b = Bytes.of_string enc in
    let i = 1 + (off mod (len - 1)) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    Some (Chunk.decode (Bytes.unsafe_to_string b))
  end

let faulty ~put:put_plan ~get:get_plan inner =
  let puts = ref 0 and gets = ref 0 in
  let put chunk =
    let n = !puts in
    incr puts;
    match (put_plan n : fault) with
    | `Pass | `Corrupt _ -> inner.put chunk
    | `Fail -> raise (Injected_fault (Printf.sprintf "put #%d failed" n))
    | `Drop -> Chunk.cid chunk (* acknowledged but never stored: a lost write *)
  in
  let get cid =
    let n = !gets in
    incr gets;
    match (get_plan n : fault) with
    | `Pass -> inner.get cid
    | `Fail -> raise (Injected_fault (Printf.sprintf "get #%d failed" n))
    | `Drop -> None
    | `Corrupt off -> (
        match inner.get cid with
        | None -> None
        | Some chunk -> (
            match flip_payload_byte chunk off with
            | None -> None
            | Some _ as corrupted -> corrupted))
  in
  { inner with put; get }

let counting inner ~read_bytes ~written_bytes =
  let put chunk =
    (* Only bytes the inner store newly stored count as written: a dedup
       hit stores nothing, and charging it would inflate the §4.4
       dedup-savings numbers.  The inner store's own byte accounting is
       the ground truth. *)
    let before = (inner.stats ()).bytes in
    let cid = inner.put chunk in
    written_bytes := !written_bytes + ((inner.stats ()).bytes - before);
    cid
  in
  let get cid =
    match inner.get cid with
    | Some chunk as r ->
        read_bytes := !read_bytes + Chunk.byte_size chunk;
        r
    | None -> None
  in
  { inner with put; get }

let with_cache ?(capacity = 4096) inner =
  if capacity <= 0 then inner (* a zero-entry cache is the inner store;
                                 the eviction path below assumes capacity > 0 *)
  else
  let cache : Chunk.t Cid.Tbl.t = Cid.Tbl.create capacity in
  let order : Cid.t Queue.t = Queue.create () in
  let insert cid chunk =
    if not (Cid.Tbl.mem cache cid) then begin
      if Cid.Tbl.length cache >= capacity then begin
        let victim = Queue.pop order in
        Cid.Tbl.remove cache victim
      end;
      Cid.Tbl.replace cache cid chunk;
      Queue.push cid order
    end
  in
  let get cid =
    match Cid.Tbl.find_opt cache cid with
    | Some c -> Some c
    | None -> (
        match inner.get cid with
        | Some chunk as r ->
            insert cid chunk;
            r
        | None -> None)
  in
  let put chunk =
    let cid = inner.put chunk in
    insert cid chunk;
    cid
  in
  let mem cid = Cid.Tbl.mem cache cid || inner.mem cid in
  { inner with put; get; mem }

(* A store that forwards to a swappable inner store. Compaction uses this to
   atomically redirect a [Db.t]'s store to a freshly swept log without the db
   holding a direct reference to the file-backed store. *)
let redirectable inner =
  let current = ref inner in
  let t =
    {
      put = (fun chunk -> !current.put chunk);
      get = (fun cid -> !current.get cid);
      mem = (fun cid -> !current.mem cid);
      stats = (fun () -> !current.stats ());
    }
  in
  (t, fun replacement -> current := replacement)

let replicated members ~replicas ~route =
  let arr = Array.of_list members in
  let n = Array.length arr in
  if n = 0 then invalid_arg "Chunk_store.replicated: empty";
  if replicas < 1 || replicas > n then
    invalid_arg "Chunk_store.replicated: bad replica count";
  let home cid = route cid mod n in
  let put chunk =
    let cid = Chunk.cid chunk in
    let base = home cid in
    for k = 0 to replicas - 1 do
      ignore (arr.((base + k) mod n).put chunk)
    done;
    cid
  in
  let get cid =
    let base = home cid in
    let rec try_replica k =
      if k >= replicas then None
      else
        match arr.((base + k) mod n).get cid with
        | Some chunk when Cid.equal (Chunk.cid chunk) cid -> Some chunk
        | Some _ (* corrupted replica *) | None -> try_replica (k + 1)
        | exception Corrupt_chunk _ -> try_replica (k + 1)
    in
    try_replica 0
  in
  let mem cid =
    let base = home cid in
    let rec go k = k < replicas && (arr.((base + k) mod n).mem cid || go (k + 1)) in
    go 0
  in
  let stats () =
    let acc = fresh_stats () in
    Array.iter
      (fun m ->
        let s = m.stats () in
        acc.puts <- acc.puts + s.puts;
        acc.dedup_hits <- acc.dedup_hits + s.dedup_hits;
        acc.gets <- acc.gets + s.gets;
        acc.misses <- acc.misses + s.misses;
        acc.chunks <- acc.chunks + s.chunks;
        acc.bytes <- acc.bytes + s.bytes)
      arr;
    acc
  in
  { put; get; mem; stats }
