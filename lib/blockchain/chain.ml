type t = {
  backend : Backend.t;
  block_size : int;
  mutable height : int;
  mutable batch : int; (* transactions in the current block *)
  mutable blocks_rev : Block.t list;
  mutable pending_txns : Transaction.t list;
  mutable reads : float list;
  mutable writes : float list;
  mutable commits : float list;
}

let create ?(block_size = 50) backend =
  {
    backend;
    block_size;
    height = 0;
    batch = 0;
    blocks_rev = [];
    pending_txns = [];
    reads = [];
    writes = [];
    commits = [];
  }

let now = Unix.gettimeofday

let commit_block t =
  if t.batch > 0 then begin
    let height = t.height + 1 in
    let txns = List.rev t.pending_txns in
    let t0 = now () in
    let state_root = t.backend.Backend.commit ~height in
    t.commits <- (now () -. t0) :: t.commits;
    let prev_hash =
      match t.blocks_rev with
      | [] -> Block.genesis_prev
      | prev :: _ -> Block.hash prev
    in
    let block =
      {
        Block.height;
        prev_hash;
        txn_digest = Transaction.digest_batch txns;
        state_root;
      }
    in
    t.blocks_rev <- block :: t.blocks_rev;
    t.height <- height;
    t.batch <- 0;
    t.pending_txns <- []
  end

let submit t txn =
  (match txn.Transaction.op with
  | Transaction.Get key ->
      let t0 = now () in
      let (_ : string option) =
        t.backend.Backend.read ~contract:txn.Transaction.contract ~key
      in
      t.reads <- (now () -. t0) :: t.reads
  | Transaction.Put (key, value) ->
      let t0 = now () in
      t.backend.Backend.write ~contract:txn.Transaction.contract ~key ~value;
      t.writes <- (now () -. t0) :: t.writes);
  t.pending_txns <- txn :: t.pending_txns;
  t.batch <- t.batch + 1;
  if t.batch >= t.block_size then commit_block t

let run t txns = List.iter (submit t) txns
let flush t = commit_block t
let height t = t.height
let blocks t = List.rev t.blocks_rev
let backend t = t.backend

let verify_chain t =
  let rec check prev = function
    | [] -> true
    | block :: rest ->
        String.equal block.Block.prev_hash prev && check (Block.hash block) rest
  in
  check Block.genesis_prev (blocks t)

let read_latencies t = Array.of_list (List.rev t.reads)
let write_latencies t = Array.of_list (List.rev t.writes)
let commit_latencies t = Array.of_list (List.rev t.commits)
