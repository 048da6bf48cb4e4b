type value = Str of string | VList of string array ref * int ref
(* VList: growable array with its length; amortized O(1) rpush and O(1)
   lindex, like Redis quicklists for our purposes. *)

type t = {
  table : (string, value) Hashtbl.t;
  mutable memory : int;
  mutable reads : int;
}

let create () = { table = Hashtbl.create 256; memory = 0; reads = 0 }

let account t s = t.memory <- t.memory + String.length s
let unaccount t s = t.memory <- t.memory - String.length s

let set t key v =
  (match Hashtbl.find_opt t.table key with
  | Some (Str old) -> unaccount t old
  | Some (VList (arr, len)) ->
      for i = 0 to !len - 1 do
        unaccount t !arr.(i)
      done
  | None -> ());
  Hashtbl.replace t.table key (Str v);
  account t v

let get t key =
  match Hashtbl.find_opt t.table key with
  | Some (Str v) ->
      t.reads <- t.reads + String.length v;
      Some v
  | _ -> None

let get_list t key =
  match Hashtbl.find_opt t.table key with
  | Some (VList (arr, len)) -> Some (arr, len)
  | _ -> None

let rpush t key v =
  let arr, len =
    match get_list t key with
    | Some pair -> pair
    | None ->
        let pair = (ref (Array.make 8 ""), ref 0) in
        Hashtbl.replace t.table key (VList (fst pair, snd pair));
        pair
  in
  if !len >= Array.length !arr then begin
    let bigger = Array.make (2 * Array.length !arr) "" in
    Array.blit !arr 0 bigger 0 !len;
    arr := bigger
  end;
  !arr.(!len) <- v;
  incr len;
  account t v;
  !len

let llen t key = match get_list t key with Some (_, len) -> !len | None -> 0

let normalize_index len i = if i < 0 then len + i else i

let lindex t key i =
  match get_list t key with
  | None -> None
  | Some (arr, len) ->
      let i = normalize_index !len i in
      if i < 0 || i >= !len then None
      else begin
        t.reads <- t.reads + String.length !arr.(i);
        Some !arr.(i)
      end

let lrange t key start stop =
  match get_list t key with
  | None -> []
  | Some (arr, len) ->
      let start = max 0 (normalize_index !len start) in
      let stop = min (!len - 1) (normalize_index !len stop) in
      let out = ref [] in
      for i = stop downto start do
        t.reads <- t.reads + String.length !arr.(i);
        out := !arr.(i) :: !out
      done;
      !out

let memory_bytes t = t.memory

(* Persistence compresses values off the write path (like an RDB dump), so
   it is computed on demand rather than charged to every write. *)
let persisted_bytes t =
  Hashtbl.fold
    (fun _ v acc ->
      match v with
      | Str s -> acc + Lzss.compressed_size s
      | VList (arr, len) ->
          let sum = ref acc in
          for i = 0 to !len - 1 do
            sum := !sum + Lzss.compressed_size !arr.(i)
          done;
          !sum)
    t.table 0

let read_bytes t = t.reads
