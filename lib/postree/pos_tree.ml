module Cid = Fbchunk.Cid
module Chunk = Fbchunk.Chunk
module Store = Fbchunk.Chunk_store
module Codec = Fbutil.Codec
module Rolling = Fbhash.Rolling

module type ELEM = sig
  type t

  val encode : Buffer.t -> t -> unit
  val decode : Fbutil.Codec.reader -> t
  val key : t -> string
  val sorted : bool
  val leaf_tag : Fbchunk.Chunk.tag
  val index_tag : Fbchunk.Chunk.tag
end

(* A reference to a child chunk, as stored in index nodes.  [count] is the
   number of elements in the subtree, [span] the number of entries in the
   child chunk itself, [last_key] the largest key in the subtree (empty
   for positional containers). *)
type chunk_ref = { cid : Cid.t; count : int; span : int; last_key : string }

(* The index-node payload format, shared by every element type: the one
   encoder and the one parser outside the verifier (lib/check/fsck). *)
let encode_index_payload entries =
  let payload = Buffer.create 1024 in
  Codec.varint payload (List.length entries);
  List.iter
    (fun e ->
      Codec.raw payload (Cid.to_raw e.cid);
      Codec.varint payload e.count;
      Codec.varint payload e.span;
      Codec.string payload e.last_key)
    entries;
  Buffer.contents payload

let decode_index chunk =
  let r = Codec.reader chunk.Chunk.payload in
  let n = Codec.read_varint r in
  (* every entry takes at least one byte: reject a count the payload
     cannot hold before allocating for it *)
  if n < 0 || n > String.length chunk.Chunk.payload then
    raise (Codec.Corrupt "implausible index entry count");
  let a = Array.make n { cid = Cid.null; count = 0; span = 0; last_key = "" } in
  for i = 0 to n - 1 do
    let cid = Cid.of_raw (Codec.read_raw r 32) in
    let count = Codec.read_varint r in
    let span = Codec.read_varint r in
    let last_key = Codec.read_string r in
    a.(i) <- { cid; count; span; last_key }
  done;
  Codec.expect_end r;
  a

let index_children chunk =
  Array.fold_right (fun r acc -> r.cid :: acc) (decode_index chunk) []

module Make (E : ELEM) = struct
  type elem = E.t

  type t = {
    store : Store.t;
    cfg : Tree_config.t;
    levels : chunk_ref array array;
        (* levels.(0) = leaves, last level holds the single root chunk *)
    cum : int array Lazy.t;
        (* cum.(i) = number of elements in leaves before leaf i *)
    mutable leaf_cache : (int * elem array) option;
  }

  (* ------------------------------------------------------------------ *)
  (* Chunk encodings                                                     *)

  let encode_leaf_payload ~count body =
    let payload = Buffer.create (Buffer.length body + 4) in
    Codec.varint payload count;
    Buffer.add_buffer payload body;
    Buffer.contents payload

  let decode_leaf chunk =
    let r = Codec.reader chunk.Chunk.payload in
    let n = Codec.read_varint r in
    if n = 0 then begin
      Codec.expect_end r;
      [||]
    end
    else begin
      let first = E.decode r in
      let a = Array.make n first in
      for i = 1 to n - 1 do
        a.(i) <- E.decode r
      done;
      Codec.expect_end r;
      a
    end

  (* ------------------------------------------------------------------ *)
  (* Builders.  Both builders cut on a content-defined pattern and reset
     their state at every cut, which is what makes boundaries a local
     function of content and enables the resync optimization below. *)

  type leaf_builder = {
    lb_store : Store.t;
    lb_cfg : Tree_config.t;
    lb_mask : int;
    lb_body : Buffer.t;
    lb_roll : Rolling.any;
    mutable lb_count : int;
    mutable lb_last_key : string;
    lb_emit : chunk_ref -> unit;
  }

  let leaf_builder store cfg emit =
    {
      lb_store = store;
      lb_cfg = cfg;
      lb_mask = (1 lsl cfg.Tree_config.leaf_bits) - 1;
      lb_body = Buffer.create (cfg.Tree_config.max_leaf_bytes + 64);
      lb_roll = Rolling.any cfg.Tree_config.rolling ~window:cfg.Tree_config.window;
      lb_count = 0;
      lb_last_key = "";
      lb_emit = emit;
    }

  let lb_cut b =
    if b.lb_count > 0 then begin
      let payload = encode_leaf_payload ~count:b.lb_count b.lb_body in
      let chunk = Chunk.v E.leaf_tag payload in
      let cid = b.lb_store.Store.put chunk in
      b.lb_emit
        { cid; count = b.lb_count; span = b.lb_count; last_key = b.lb_last_key };
      Buffer.clear b.lb_body;
      b.lb_count <- 0;
      b.lb_last_key <- "";
      Rolling.any_reset b.lb_roll
    end

  (* Add one element; returns [true] when the element closed a chunk.  The
     pattern is checked at every byte position (§4.3.2); when it occurs in
     the middle of an element, the boundary extends to the element's end so
     no element spans two chunks. *)
  let lb_add b e =
    let start = Buffer.length b.lb_body in
    E.encode b.lb_body e;
    let stop = Buffer.length b.lb_body in
    let bytes = Buffer.sub b.lb_body start (stop - start) in
    let pattern =
      Rolling.any_feed_detect b.lb_roll bytes ~chunk_size_before:start
        ~min_size:b.lb_cfg.Tree_config.min_leaf_bytes ~mask:b.lb_mask
    in
    b.lb_count <- b.lb_count + 1;
    b.lb_last_key <- E.key e;
    if pattern || stop >= b.lb_cfg.Tree_config.max_leaf_bytes then begin
      lb_cut b;
      true
    end
    else false

  type index_builder = {
    ib_store : Store.t;
    ib_mask : int;
    ib_max : int;
    mutable ib_entries : chunk_ref list; (* reversed *)
    mutable ib_n : int;
    mutable ib_sum : int;
    ib_emit : chunk_ref -> unit;
  }

  let index_builder store cfg emit =
    {
      ib_store = store;
      ib_mask = (1 lsl cfg.Tree_config.index_bits) - 1;
      ib_max = cfg.Tree_config.max_index_entries;
      ib_entries = [];
      ib_n = 0;
      ib_sum = 0;
      ib_emit = emit;
    }

  let ib_cut b =
    match b.ib_entries with
    | [] -> ()
    | last :: _ ->
        let entries = List.rev b.ib_entries in
        let payload = encode_index_payload entries in
        let chunk = Chunk.v E.index_tag payload in
        let cid = b.ib_store.Store.put chunk in
        b.ib_emit
          { cid; count = b.ib_sum; span = b.ib_n; last_key = last.last_key };
        b.ib_entries <- [];
        b.ib_n <- 0;
        b.ib_sum <- 0

  let ib_add b r =
    b.ib_entries <- r :: b.ib_entries;
    b.ib_n <- b.ib_n + 1;
    b.ib_sum <- b.ib_sum + r.count;
    if b.ib_n >= b.ib_max || Cid.low_bits r.cid land b.ib_mask = 0 then begin
      ib_cut b;
      true
    end
    else false

  (* ------------------------------------------------------------------ *)
  (* Construction                                                        *)

  let empty_leaf_ref store =
    let chunk = Chunk.v E.leaf_tag (encode_leaf_payload ~count:0 (Buffer.create 0)) in
    let cid = store.Store.put chunk in
    { cid; count = 0; span = 0; last_key = "" }

  let make_cum leaves =
    lazy
      (let n = Array.length leaves in
       let cum = Array.make (n + 1) 0 in
       for i = 0 to n - 1 do
         cum.(i + 1) <- cum.(i) + leaves.(i).count
       done;
       cum)

  let full_regroup store cfg lower =
    let out = ref [] in
    let ib = index_builder store cfg (fun r -> out := r :: !out) in
    Array.iter (fun r -> ignore (ib_add ib r)) lower;
    ib_cut ib;
    Array.of_list (List.rev !out)

  let levels_of_leaves store cfg leaves =
    let acc = ref [ leaves ] in
    let cur = ref leaves in
    while Array.length !cur > 1 do
      let upper = full_regroup store cfg !cur in
      acc := upper :: !acc;
      cur := upper
    done;
    Array.of_list (List.rev !acc)

  let of_levels store cfg levels =
    { store; cfg; levels; cum = make_cum levels.(0); leaf_cache = None }

  let of_elements store cfg seq =
    let out = ref [] in
    let lb = leaf_builder store cfg (fun r -> out := r :: !out) in
    Seq.iter (fun e -> ignore (lb_add lb e)) seq;
    lb_cut lb;
    let leaves =
      match List.rev !out with
      | [] -> [| empty_leaf_ref store |]
      | refs -> Array.of_list refs
    in
    of_levels store cfg (levels_of_leaves store cfg leaves)

  let of_list store cfg l = of_elements store cfg (List.to_seq l)
  let empty store cfg = of_list store cfg []

  (* ------------------------------------------------------------------ *)
  (* Byte streams (Blob): every element encodes to exactly one payload
     byte.  One cutter serves the bulk build, the byte splice and rebase.
     It finds boundaries with [find_boundary] over whole segments, which is
     byte-for-byte identical to feeding single-byte elements through
     [lb_add], and cuts leaves as substrings. *)

  type byte_cutter = {
    bc_store : Store.t;
    bc_cfg : Tree_config.t;
    bc_mask : int;
    bc_roll : Rolling.any;
    bc_body : Buffer.t; (* bytes of the open leaf *)
    mutable bc_out : chunk_ref list; (* emitted leaves, reversed *)
  }

  let byte_cutter store cfg =
    {
      bc_store = store;
      bc_cfg = cfg;
      bc_mask = (1 lsl cfg.Tree_config.leaf_bits) - 1;
      bc_roll = Rolling.any cfg.Tree_config.rolling ~window:cfg.Tree_config.window;
      bc_body = Buffer.create 256;
      bc_out = [];
    }

  (* Close the open leaf with [s.[off .. off+len)] as its last bytes. *)
  let bc_cut b s ~off ~len =
    let count = Buffer.length b.bc_body + len in
    let payload = Buffer.create (count + 4) in
    Codec.varint payload count;
    Buffer.add_buffer payload b.bc_body;
    Buffer.add_substring payload s off len;
    let cid = b.bc_store.Store.put (Chunk.v E.leaf_tag (Buffer.contents payload)) in
    b.bc_out <- { cid; count; span = count; last_key = "" } :: b.bc_out;
    Buffer.clear b.bc_body;
    Rolling.any_reset b.bc_roll

  (* Feed [s] from [off] to its end.  Returns [true] when the cutter is
     empty afterwards, i.e. a boundary fell exactly on the last byte. *)
  let bc_feed b s ~off =
    let n = String.length s in
    let off = ref off in
    while !off < n do
      match
        Rolling.any_find_boundary b.bc_roll s ~off:!off
          ~chunk_size_before:(Buffer.length b.bc_body)
          ~min_size:b.bc_cfg.Tree_config.min_leaf_bytes
          ~max_size:b.bc_cfg.Tree_config.max_leaf_bytes ~mask:b.bc_mask
      with
      | Some consumed ->
          bc_cut b s ~off:!off ~len:consumed;
          off := !off + consumed
      | None ->
          Buffer.add_substring b.bc_body s !off (n - !off);
          off := n
    done;
    Buffer.length b.bc_body = 0

  (* Cut the residual leaf forced by the end of the stream; returns every
     leaf emitted, in order. *)
  let bc_finish b =
    if Buffer.length b.bc_body > 0 then bc_cut b "" ~off:0 ~len:0;
    List.rev b.bc_out

  let of_bytes store cfg s =
    let b = byte_cutter store cfg in
    ignore (bc_feed b s ~off:0 : bool);
    let leaves =
      match bc_finish b with
      | [] -> [| empty_leaf_ref store |]
      | refs -> Array.of_list refs
    in
    of_levels store cfg (levels_of_leaves store cfg leaves)

  let ref_of_chunk cid chunk =
    if chunk.Chunk.tag = E.leaf_tag then begin
      if not E.sorted then begin
        (* Positional containers never need leaf keys: read the element
           count from the header and defer payload decoding. *)
        let r = Codec.reader chunk.Chunk.payload in
        let n = Codec.read_varint r in
        { cid; count = n; span = n; last_key = "" }
      end
      else begin
        let elems = decode_leaf chunk in
        let n = Array.length elems in
        let last_key = if n = 0 then "" else E.key elems.(n - 1) in
        { cid; count = n; span = n; last_key }
      end
    end
    else begin
      let entries = decode_index chunk in
      let n = Array.length entries in
      if n = 0 then raise (Codec.Corrupt "empty index chunk");
      let count = Array.fold_left (fun s e -> s + e.count) 0 entries in
      { cid; count; span = n; last_key = entries.(n - 1).last_key }
    end

  let of_root store cfg root_cid =
    let root_chunk = Store.get_exn store root_cid in
    let root_ref = ref_of_chunk root_cid root_chunk in
    let rec go acc refs =
      (* [acc] holds the levels above [refs], topmost first. *)
      let chunk = Store.get_exn store refs.(0).cid in
      if chunk.Chunk.tag = E.leaf_tag then Array.of_list (refs :: acc)
      else
        let children =
          Array.concat
            (Array.to_list
               (Array.map
                  (fun r -> decode_index (Store.get_exn store r.cid))
                  refs))
        in
        go (refs :: acc) children
    in
    of_levels store cfg (go [] [| root_ref |])

  (* ------------------------------------------------------------------ *)
  (* Accessors                                                           *)

  let top t = t.levels.(Array.length t.levels - 1).(0)
  let root t = (top t).cid
  let length t = (top t).count
  let height t = Array.length t.levels
  let equal a b = Cid.equal (root a) (root b)

  let leaf_elems t i =
    match t.leaf_cache with
    | Some (j, elems) when j = i -> elems
    | _ ->
        let chunk = Store.get_exn t.store t.levels.(0).(i).cid in
        let elems = decode_leaf chunk in
        t.leaf_cache <- Some (i, elems);
        elems

  (* Index of the leaf containing element position [pos] (requires
     [0 <= pos < length]). *)
  let leaf_of_pos t pos =
    let cum = Lazy.force t.cum in
    let lo = ref 0 and hi = ref (Array.length t.levels.(0) - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cum.(mid + 1) <= pos then lo := mid + 1 else hi := mid
    done;
    !lo

  let get t pos =
    if pos < 0 || pos >= length t then invalid_arg "Pos_tree.get: out of bounds";
    let i = leaf_of_pos t pos in
    let cum = Lazy.force t.cum in
    (leaf_elems t i).(pos - cum.(i))

  let to_seq t =
    let leaves = t.levels.(0) in
    let rec leaf_seq i () =
      if i >= Array.length leaves then Seq.Nil
      else
        let elems = leaf_elems t i in
        let rec elem_seq k () =
          if k >= Array.length elems then leaf_seq (i + 1) ()
          else Seq.Cons (elems.(k), elem_seq (k + 1))
        in
        elem_seq 0 ()
    in
    leaf_seq 0

  let seq_from t ~pos =
    let total = length t in
    if pos < 0 || pos > total then invalid_arg "Pos_tree.seq_from: out of bounds";
    if pos = total then Seq.empty
    else begin
      let leaves = t.levels.(0) in
      let cum = Lazy.force t.cum in
      let first = leaf_of_pos t pos in
      let rec leaf_seq i skip () =
        if i >= Array.length leaves then Seq.Nil
        else
          let elems = leaf_elems t i in
          let rec elem_seq k () =
            if k >= Array.length elems then leaf_seq (i + 1) 0 ()
            else Seq.Cons (elems.(k), elem_seq (k + 1))
          in
          elem_seq skip ()
      in
      leaf_seq first (pos - cum.(first))
    end

  let to_list t = List.of_seq (to_seq t)
  let fold f init t = Seq.fold_left f init (to_seq t)

  let iter_slice t ~pos ~len f =
    if pos < 0 || len < 0 || pos + len > length t then
      invalid_arg "Pos_tree.slice: out of bounds";
    if len > 0 then begin
      let cum = Lazy.force t.cum in
      let first = leaf_of_pos t pos in
      let remaining = ref len and p = ref pos and i = ref first in
      while !remaining > 0 do
        let elems = leaf_elems t !i in
        let off = !p - cum.(!i) in
        let take = min !remaining (Array.length elems - off) in
        for k = off to off + take - 1 do
          f elems.(k)
        done;
        remaining := !remaining - take;
        p := !p + take;
        incr i
      done
    end

  let slice t ~pos ~len =
    let out = ref [] in
    iter_slice t ~pos ~len (fun e -> out := e :: !out);
    List.rev !out

  (* Raw payload of leaf [i] and the offset of its first element byte. *)
  let leaf_payload t i =
    let payload = (Store.get_exn t.store t.levels.(0).(i).cid).Chunk.payload in
    let r = Codec.reader payload in
    ignore (Codec.read_varint r : int);
    (payload, Codec.pos r)

  let iter_leaf_payloads t ~pos ~len f =
    if pos < 0 || len < 0 || pos + len > length t then
      invalid_arg "Pos_tree.iter_leaf_payloads: out of bounds";
    if len > 0 then begin
      let cum = Lazy.force t.cum in
      let first = leaf_of_pos t pos in
      let remaining = ref len and p = ref pos and i = ref first in
      while !remaining > 0 do
        let payload, header = leaf_payload t !i in
        let off = !p - cum.(!i) in
        let take = min !remaining (t.levels.(0).(!i).count - off) in
        f payload ~off:(header + off) ~take;
        remaining := !remaining - take;
        p := !p + take;
        incr i
      done
    end

  (* ------------------------------------------------------------------ *)
  (* Splice: the copy-on-write update path (§4.3.3).

     Each level is rebuilt with the same cursor algorithm: walk the old
     chunks left to right, copying whole chunks by reference wherever the
     builder is empty exactly at an old chunk boundary (both sides' split
     state resets there, so everything inside is bit-identical), and
     re-chunking only around the edits until the output resyncs with an
     old boundary.  Every copied chunk is recorded as an anchor
     [(old_index, new_index)]; the gaps between anchors become the edits
     applied to the level above, so k scattered edits cost O(k · log n)
     chunk builds rather than one giant rebuild of the covering range. *)

  (* Gaps between consecutive anchors, as edits on the next level up:
     [(old_start, old_len, replacement refs)]. *)
  let edits_of_anchors ~old_len ~new_refs anchors =
    let new_len = Array.length new_refs in
    let rec go (prev_old, prev_new) anchors acc =
      let gap (oi, nj) =
        if oi > prev_old + 1 || nj > prev_new + 1 then
          let repl = ref [] in
          for j = nj - 1 downto prev_new + 1 do
            repl := new_refs.(j) :: !repl
          done;
          Some (prev_old + 1, oi - prev_old - 1, !repl)
        else None
      in
      match anchors with
      | [] -> (
          match gap (old_len, new_len) with
          | Some e -> List.rev (e :: acc)
          | None -> List.rev acc)
      | a :: rest -> (
          match gap a with
          | Some e -> go a rest (e :: acc)
          | None -> go a rest acc)
    in
    go (-1, -1) anchors []

  (* Rebuild the leaf level, applying [edits] = [(pos, del, ins)] sorted and
     non-overlapping (element coordinates).  Returns the new leaf array and
     the copy anchors. *)
  let splice_leaves t edits =
    let old = t.levels.(0) in
    let cum = Lazy.force t.cum in
    let nleaves = Array.length old in
    let total = length t in
    let out = ref [] and n_out = ref 0 in
    let anchors = ref [] in
    let emit r =
      out := r :: !out;
      incr n_out
    in
    let lb = leaf_builder t.store t.cfg emit in
    let pos = ref 0 (* old elements consumed so far *)
    and leaf_i = ref 0
    and builder_empty = ref true in
    let advance_leaf () =
      while !leaf_i < nleaves && cum.(!leaf_i + 1) <= !pos do
        incr leaf_i
      done
    in
    (* The last old leaf is a residual cut — its boundary was forced by the
       end of the stream, not by content — so it may be reused only when it
       is also final in the new stream ([allow_last]). *)
    let feed_old_until ~allow_last limit =
      while !pos < limit do
        advance_leaf ();
        let base = cum.(!leaf_i) and next = cum.(!leaf_i + 1) in
        if
          !builder_empty && !pos = base && next <= limit
          && old.(!leaf_i).count > 0
          && (!leaf_i < nleaves - 1 || allow_last)
        then begin
          (* Resynced: the chunker state is reset exactly at an old chunk
             boundary, so the whole old leaf can be reused untouched. *)
          emit old.(!leaf_i);
          anchors := (!leaf_i, !n_out - 1) :: !anchors;
          pos := next
        end
        else begin
          let elems = leaf_elems t !leaf_i in
          let stop = min limit next in
          for k = !pos - base to stop - base - 1 do
            builder_empty := lb_add lb elems.(k)
          done;
          pos := stop
        end
      done
    in
    List.iter
      (fun (epos, del, ins) ->
        feed_old_until ~allow_last:false epos;
        List.iter (fun e -> builder_empty := lb_add lb e) ins;
        pos := !pos + del)
      edits;
    feed_old_until ~allow_last:true total;
    lb_cut lb;
    let leaves =
      match List.rev !out with
      | [] -> [| empty_leaf_ref t.store |]
      | refs -> Array.of_list refs
    in
    (leaves, List.rev !anchors)

  (* Rebuild one index level given the edits on the level below (entry
     coordinates).  Entries are in-memory chunk_refs and the split test is
     memoryless, so "decoding an old chunk" is just slicing [lower_old]. *)
  let splice_index store cfg upper_old ~lower_old edits =
    let n_lower = Array.length lower_old in
    let n_up = Array.length upper_old in
    let ucum = Array.make (n_up + 1) 0 in
    for j = 0 to n_up - 1 do
      ucum.(j + 1) <- ucum.(j) + upper_old.(j).span
    done;
    let out = ref [] and n_out = ref 0 in
    let anchors = ref [] in
    let emit r =
      out := r :: !out;
      incr n_out
    in
    let ib = index_builder store cfg emit in
    let pos = ref 0 and j = ref 0 and builder_empty = ref true in
    let advance () =
      while !j < n_up && ucum.(!j + 1) <= !pos do
        incr j
      done
    in
    (* Same residual-cut caveat as in [splice_leaves]: the last old index
       chunk is only reusable when it is also final in the new stream. *)
    let feed_old_until ~allow_last limit =
      while !pos < limit do
        advance ();
        let base = ucum.(!j) and next = ucum.(!j + 1) in
        if
          !builder_empty && !pos = base && next <= limit
          && (!j < n_up - 1 || allow_last)
        then begin
          emit upper_old.(!j);
          anchors := (!j, !n_out - 1) :: !anchors;
          pos := next
        end
        else begin
          let stop = min limit next in
          for k = !pos to stop - 1 do
            builder_empty := ib_add ib lower_old.(k)
          done;
          pos := stop
        end
      done
    in
    List.iter
      (fun (start, len, repl) ->
        feed_old_until ~allow_last:false start;
        List.iter (fun r -> builder_empty := ib_add ib r) repl;
        pos := start + len)
      edits;
    feed_old_until ~allow_last:true n_lower;
    ib_cut ib;
    (Array.of_list (List.rev !out), List.rev !anchors)

  let rebuild_levels t (new_leaves, leaf_anchors) =
    let levels_rev = ref [ new_leaves ] in
    let lower_old = ref t.levels.(0)
    and lower_new = ref new_leaves
    and anchors = ref leaf_anchors
    and k = ref 1
    and finished = ref (Array.length new_leaves <= 1) in
    while not !finished do
      let edits =
        edits_of_anchors ~old_len:(Array.length !lower_old) ~new_refs:!lower_new
          !anchors
      in
      let upper_old = if !k < Array.length t.levels then t.levels.(!k) else [||] in
      if edits = [] && Array.length upper_old > 0 then begin
        (* Lower level identical to the old one: every level above is also
           unchanged; reuse them. *)
        levels_rev := List.tl !levels_rev;
        levels_rev := !lower_old :: !levels_rev;
        let kk = ref !k in
        while !kk < Array.length t.levels do
          levels_rev := t.levels.(!kk) :: !levels_rev;
          incr kk
        done;
        finished := true
      end
      else begin
        let upper, upper_anchors =
          if Array.length upper_old = 0 then
            (full_regroup t.store t.cfg !lower_new, [])
          else splice_index t.store t.cfg upper_old ~lower_old:!lower_old edits
        in
        levels_rev := upper :: !levels_rev;
        lower_old := upper_old;
        lower_new := upper;
        anchors := upper_anchors;
        k := !k + 1;
        if Array.length upper <= 1 then finished := true
      end
    done;
    let levels = Array.of_list (List.rev !levels_rev) in
    of_levels t.store t.cfg levels

  (* Byte splice: re-chunk from the start of the leaf holding [pos] (the
     residual last leaf for an append) through the insert, then pull old
     bytes leaf by leaf until a cut lands on an old leaf boundary; every
     leaf from there on is reused by reference.  Work is O(edit + leaf)
     bytes whatever the blob's size. *)
  let splice_bytes t ~pos ~del ~ins =
    let total = length t in
    if pos < 0 || del < 0 || pos + del > total then
      invalid_arg "Pos_tree.splice_bytes: out of bounds";
    if del = 0 && ins = "" then t
    else if total = 0 || (del = total && ins = "") then
      of_bytes t.store t.cfg ins
    else begin
      let old = t.levels.(0) in
      let n = Array.length old in
      let cum = Lazy.force t.cum in
      let first = leaf_of_pos t (min pos (total - 1)) in
      let b = byte_cutter t.store t.cfg in
      let payload, header = leaf_payload t first in
      ignore (bc_feed b (String.sub payload header (pos - cum.(first))) ~off:0 : bool);
      let at_cut = ref (bc_feed b ins ~off:0) in
      let resume = pos + del in
      let k = ref (if resume = total then n else leaf_of_pos t resume) in
      let off = ref (resume - cum.(!k)) in
      while !k < n && not (!at_cut && !off = 0) do
        let payload, header = leaf_payload t !k in
        at_cut := bc_feed b payload ~off:(header + !off);
        off := 0;
        incr k
      done;
      let fresh = Array.of_list (bc_finish b) in
      let kept = n - !k and nf = Array.length fresh in
      let leaves =
        Array.concat [ Array.sub old 0 first; fresh; Array.sub old !k kept ]
      in
      let anchors =
        List.init first (fun i -> (i, i))
        @ List.init kept (fun m -> (!k + m, first + nf + m))
      in
      rebuild_levels t (leaves, anchors)
    end

  (* Number of equal bytes at the front of [a.[ai .. ai+len)] and
     [b.[bi .. bi+len)] ([~back:false]), or at their back; compared a
     word at a time. *)
  let matching ~back a ai b bi len =
    let at k w = if back then len - k - w else k in
    let k = ref 0 in
    while
      !k + 8 <= len
      && Int64.equal
           (String.get_int64_ne a (ai + at !k 8))
           (String.get_int64_ne b (bi + at !k 8))
    do
      k := !k + 8
    done;
    while !k < len && a.[ai + at !k 1] = b.[bi + at !k 1] do
      incr k
    done;
    !k

  (* Rebase a byte tree onto new content: old and new share a common
     prefix and suffix, compared against the old leaf payloads in place,
     and only the middle is spliced. *)
  let rebase_bytes t s =
    let total = length t and n = String.length s in
    if total = 0 && n = 0 then t
    else if total = 0 || n = 0 then of_bytes t.store t.cfg s
    else begin
      let leaves = t.levels.(0) in
      let limit = min total n in
      (* Common prefix, leaf by leaf from the front. *)
      let p = ref 0 and i = ref 0 and diverged = ref false in
      while (not !diverged) && !p < limit do
        let payload, header = leaf_payload t !i in
        let len = min leaves.(!i).count (limit - !p) in
        let m = matching ~back:false payload header s !p len in
        p := !p + m;
        diverged := m < len;
        incr i
      done;
      if !p = total && !p = n then t
      else begin
        (* Common suffix, leaf by leaf from the back, not overlapping the
           prefix on either side. *)
        let limit = limit - !p in
        let q = ref 0 and i = ref (Array.length leaves - 1) and diverged = ref false in
        while (not !diverged) && !q < limit do
          let payload, header = leaf_payload t !i in
          let count = leaves.(!i).count in
          let len = min count (limit - !q) in
          let m =
            matching ~back:true payload (header + count - len) s (n - !q - len) len
          in
          q := !q + m;
          diverged := m < len;
          decr i
        done;
        splice_bytes t ~pos:!p ~del:(total - !p - !q)
          ~ins:(String.sub s !p (n - !p - !q))
      end
    end

  let validate_edits t edits =
    let total = length t in
    let rec check prev_end = function
      | [] -> ()
      | (pos, del, _) :: rest ->
          if pos < prev_end || del < 0 || pos + del > total then
            invalid_arg "Pos_tree.splice_many: edits out of range or overlapping";
          check (pos + del) rest
    in
    check 0 edits

  let splice_many t edits =
    validate_edits t edits;
    let edits = List.filter (fun (_, del, ins) -> del > 0 || ins <> []) edits in
    if edits = [] then t else rebuild_levels t (splice_leaves t edits)

  let splice t ~pos ~del ~ins = splice_many t [ (pos, del, ins) ]
  let append t elems = splice t ~pos:(length t) ~del:0 ~ins:elems

  (* ------------------------------------------------------------------ *)
  (* Sorted access                                                       *)

  let position_of_key t key =
    let leaves = t.levels.(0) in
    let n = Array.length leaves in
    let total = length t in
    (* First leaf whose last_key >= key. *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if String.compare leaves.(mid).last_key key < 0 then lo := mid + 1
      else hi := mid
    done;
    if !lo = n then `Insert_at total
    else begin
      let cum = Lazy.force t.cum in
      let elems = leaf_elems t !lo in
      let base = cum.(!lo) in
      let a = ref 0 and b = ref (Array.length elems) in
      while !a < !b do
        let mid = (!a + !b) / 2 in
        if String.compare (E.key elems.(mid)) key < 0 then a := mid + 1 else b := mid
      done;
      if !a < Array.length elems && String.equal (E.key elems.(!a)) key then
        `Found (base + !a)
      else `Insert_at (base + !a)
    end

  let find t key =
    match position_of_key t key with
    | `Found i -> Some (get t i)
    | `Insert_at _ -> None

  let set_sorted t e =
    match position_of_key t (E.key e) with
    | `Found i -> splice t ~pos:i ~del:1 ~ins:[ e ]
    | `Insert_at i -> splice t ~pos:i ~del:0 ~ins:[ e ]

  let set_sorted_many t elems =
    if elems = [] then t
    else begin
      (* Sort by key, keep the last write for duplicate keys. *)
      let sorted =
        List.stable_sort (fun a b -> String.compare (E.key a) (E.key b)) elems
      in
      let dedup =
        let rec go = function
          | a :: (b :: _ as rest) when String.equal (E.key a) (E.key b) -> go rest
          | a :: rest -> a :: go rest
          | [] -> []
        in
        go sorted
      in
      (* Positions are all w.r.t. the original tree, so edits at the same
         insert position are merged into a single edit.  Insert lists are
         accumulated reversed so bulk loads stay linear. *)
      let edits =
        List.fold_left
          (fun acc e ->
            match position_of_key t (E.key e) with
            | `Found i -> (
                match acc with
                | (p0, 0, ins0) :: rest when p0 = i -> (i, 1, e :: ins0) :: rest
                | _ -> (i, 1, [ e ]) :: acc)
            | `Insert_at i -> (
                match acc with
                | (p0, 0, ins0) :: rest when p0 = i -> (i, 0, e :: ins0) :: rest
                | _ -> (i, 0, [ e ]) :: acc))
          [] dedup
      in
      let edits = List.rev_map (fun (p, d, ins) -> (p, d, List.rev ins)) edits in
      splice_many t edits
    end

  let remove_sorted t key =
    match position_of_key t key with
    | `Found i -> splice t ~pos:i ~del:1 ~ins:[]
    | `Insert_at _ -> t

  let seq_from_key t key =
    match position_of_key t key with
    | `Found i | `Insert_at i -> seq_from t ~pos:i

  (* ------------------------------------------------------------------ *)
  (* Structure inspection                                                *)

  let leaf_cids t = Array.map (fun r -> r.cid) t.levels.(0)

  let iter_cids t f =
    Array.iter (fun level -> Array.iter (fun r -> f r.cid) level) t.levels
  let chunk_count t = Array.fold_left (fun s l -> s + Array.length l) 0 t.levels

  let verify t =
    try
      Array.for_all
        (fun level ->
          Array.for_all
            (fun r ->
              let chunk = Store.get_exn t.store r.cid in
              Cid.equal (Chunk.cid chunk) r.cid)
            level)
        t.levels
    with Store.Missing_chunk _ -> false

  let diff_leaves a b =
    let set_of t =
      Array.fold_left (fun s c -> Cid.Set.add c s) Cid.Set.empty (leaf_cids t)
    in
    Cid.Set.diff (set_of a) (set_of b)

  (* Element equality by encoding, through one reused buffer: [x]'s
     encoding, then [y]'s, compared half against half. *)
  let elem_eq buf x y =
    Buffer.clear buf;
    E.encode buf x;
    let n = Buffer.length buf in
    E.encode buf y;
    Buffer.length buf = 2 * n
    &&
    let k = ref 0 in
    while !k < n && Buffer.nth buf !k = Buffer.nth buf (n + !k) do
      incr k
    done;
    !k = n

  (* Leading and trailing leaves of [a] and [b] equal by cid: [(p, s)],
     with the suffix run stopping where the prefix run ends on either
     side.  Both the diff and the merge below start from these runs. *)
  let leaf_runs a b =
    let la = a.levels.(0) and lb = b.levels.(0) in
    let na = Array.length la and nb = Array.length lb in
    let p = ref 0 in
    while !p < na && !p < nb && Cid.equal la.(!p).cid lb.(!p).cid do
      incr p
    done;
    let s = ref 0 in
    while
      !s < na - !p && !s < nb - !p && Cid.equal la.(na - 1 - !s).cid lb.(nb - 1 - !s).cid
    do
      incr s
    done;
    (!p, !s)

  (* Length of the common prefix ([~back:false]) or suffix of elements
     [lo1, hi1) of [t1] and [lo2, hi2) of [t2].  Each step takes the run
     of elements that one leaf on each side holds in the scan direction
     and hands it to [run_match ~back t1 i1 o1 t2 i2 o2 len] (leaf,
     offset of the run's first element in it, run length), which returns
     how many elements of the run match from that direction. *)
  let common ~back ~run_match t1 (lo1, hi1) t2 (lo2, hi2) =
    let limit = min (hi1 - lo1) (hi2 - lo2) in
    let cum1 = Lazy.force t1.cum and cum2 = Lazy.force t2.cum in
    let k = ref 0 and diverged = ref false in
    while (not !diverged) && !k < limit do
      let at lo hi = if back then hi - 1 - !k else lo + !k in
      let p1 = at lo1 hi1 and p2 = at lo2 hi2 in
      let i1 = leaf_of_pos t1 p1 and i2 = leaf_of_pos t2 p2 in
      let avail cum i p = if back then p - cum.(i) + 1 else cum.(i + 1) - p in
      let len = min (limit - !k) (min (avail cum1 i1 p1) (avail cum2 i2 p2)) in
      let first cum i p = if back then p - cum.(i) - len + 1 else p - cum.(i) in
      let m = run_match ~back t1 i1 (first cum1 i1 p1) t2 i2 (first cum2 i2 p2) len in
      k := !k + m;
      diverged := m < len
    done;
    !k

  (* The region [diff_region] reports: the differing leaf spans, trimmed
     of their common leading, then trailing, elements by [run_match]. *)
  let refine_region ~run_match t1 t2 =
    if equal t1 t2 then None
    else begin
      let p, s = leaf_runs t1 t2 in
      let span t =
        let cum = Lazy.force t.cum in
        (cum.(p), cum.(Array.length t.levels.(0) - s))
      in
      let (lo1, hi1 as span1) = span t1 and (lo2, hi2 as span2) = span t2 in
      let m = common ~back:false ~run_match t1 span1 t2 span2 in
      let q = common ~back:true ~run_match t1 (lo1 + m, hi1) t2 (lo2 + m, hi2) in
      Some ((lo1 + m, hi1 - lo1 - m - q), (lo2 + m, hi2 - lo2 - m - q))
    end

  (* Elements: each differing leaf is decoded once (the leaf cache) and
     compared by encoding. *)
  let diff_region t1 t2 =
    let buf = Buffer.create 64 in
    let run_match ~back t1 i1 o1 t2 i2 o2 len =
      let e1 = leaf_elems t1 i1 and e2 = leaf_elems t2 i2 in
      let at k = if back then len - 1 - k else k in
      let k = ref 0 in
      while !k < len && elem_eq buf e1.(o1 + at !k) e2.(o2 + at !k) do
        incr k
      done;
      !k
    in
    refine_region ~run_match t1 t2

  (* Bytes: the leaf payloads are compared in place, a word at a time. *)
  let diff_region_bytes t1 t2 =
    let run_match ~back t1 i1 o1 t2 i2 o2 len =
      let a, ha = leaf_payload t1 i1 and b, hb = leaf_payload t2 i2 in
      matching ~back a (ha + o1) b (hb + o2) len
    in
    refine_region ~run_match t1 t2

  (* Three-way merge by chunk reference.  [l] changes base leaves
     [p_l, n - s_l) and [r] changes [p_r, n - s_r).  When [l]'s run ends
     at or before [r]'s begins, the merged leaves are [l]'s up to its
     common suffix, then [r]'s from base leaf [n - s_l] on (below [p_r]
     they are base's): existing leaves only.  The cutter resets at every
     cut, so this is a fresh build's tree as long as the junction is a
     content cut; [s_l >= 1] (the residual-cut rule of [splice_leaves])
     keeps [l]'s last leaf, which the end of the stream may have cut, out
     of the middle.  The diffs' regions lie inside these leaf runs, so
     the content is the region merge's.  The mirror case needs a gap of a
     leaf: where the runs touch, both sides may insert at one position,
     and the region merge puts [l]'s insertion first. *)
  let merge_by_ref ~base l r =
    if equal base l then Some r
    else if equal base r then Some l
    else begin
      let n = Array.length base.levels.(0) in
      let p_l, s_l = leaf_runs base l and p_r, s_r = leaf_runs base r in
      (* [first]'s leaves before its suffix, then [second]'s from base leaf
         [n - s_first]; index levels are rebuilt against [first], whose
         leaves the result keeps up to [second]'s changed run and again in
         [second]'s suffix. *)
      let assemble first ~s_first second ~p_second ~s_second =
        let a = first.levels.(0) and b = second.levels.(0) in
        let na = Array.length a and nb = Array.length b in
        let keep = na - s_first and from = n - s_first in
        (* An emptied tree is one empty leaf, which no other tree holds:
           [second]'s is dropped, and one stands for an emptied merge. *)
        let rest = if length second = 0 then [||] else Array.sub b from (nb - from) in
        let leaves =
          match Array.append (Array.sub a 0 keep) rest with
          | [||] -> [| empty_leaf_ref first.store |]
          | leaves -> leaves
        in
        let len = Array.length leaves in
        let anchors =
          List.init (keep + p_second - from) (fun i -> (i, i))
          @ List.init s_second (fun j -> (na - s_second + j, len - s_second + j))
        in
        Some (rebuild_levels first (leaves, anchors))
      in
      if s_l >= 1 && n - s_l <= p_r then assemble l ~s_first:s_l r ~p_second:p_r ~s_second:s_r
      else if s_r >= 1 && n - s_r < p_l then
        assemble r ~s_first:s_r l ~p_second:p_l ~s_second:s_l
      else None
    end

  let diff_sorted ta tb =
    let la = ta.levels.(0) and lb = tb.levels.(0) in
    let na = Array.length la and nb = Array.length lb in
    let out = ref [] in
    let emit d = out := d :: !out in
    let buf = Buffer.create 64 in
    (* Cursors: leaf index and offset within the (lazily decoded) leaf. *)
    let ia = ref 0 and oa = ref 0 and ib = ref 0 and ob = ref 0 in
    let ea = ref [||] and eb = ref [||] in
    let load_a () = if !oa = 0 then ea := leaf_elems ta !ia in
    let load_b () = if !ob = 0 then eb := leaf_elems tb !ib in
    let adv_a () =
      incr oa;
      if !oa >= Array.length !ea then begin
        oa := 0;
        incr ia
      end
    in
    let adv_b () =
      incr ob;
      if !ob >= Array.length !eb then begin
        ob := 0;
        incr ib
      end
    in
    let continue = ref true in
    while !continue do
      if !ia >= na && !ib >= nb then continue := false
      else if !ia >= na then begin
        load_b ();
        if Array.length !eb = 0 then incr ib
        else begin
          emit (`Right !eb.(!ob));
          adv_b ()
        end
      end
      else if !ib >= nb then begin
        load_a ();
        if Array.length !ea = 0 then incr ia
        else begin
          emit (`Left !ea.(!oa));
          adv_a ()
        end
      end
      else if !oa = 0 && !ob = 0 && Cid.equal la.(!ia).cid lb.(!ib).cid then begin
        (* Identical subtrees: skip without decoding. *)
        incr ia;
        incr ib
      end
      else begin
        load_a ();
        load_b ();
        if Array.length !ea = 0 then incr ia
        else if Array.length !eb = 0 then incr ib
        else begin
          let x = !ea.(!oa) and y = !eb.(!ob) in
          let c = String.compare (E.key x) (E.key y) in
          if c < 0 then begin
            emit (`Left x);
            adv_a ()
          end
          else if c > 0 then begin
            emit (`Right y);
            adv_b ()
          end
          else begin
            if not (elem_eq buf x y) then emit (`Changed (x, y));
            adv_a ();
            adv_b ()
          end
        end
      end
    done;
    List.rev !out
end
