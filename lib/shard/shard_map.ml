module Wire = Fbremote.Wire
module Partition = Fbcluster.Partition

type t = Wire.shard_map = {
  version : int;
  shards : (string * int) array;
  pending : string list;
}

exception Bad_map of string

let () =
  Printexc.register_printer (function
    | Bad_map msg -> Some ("forkbase shard map: " ^ msg)
    | _ -> None)

let create ~version shards =
  if version < 0 then raise (Bad_map "negative version");
  { version; shards = Array.of_list shards; pending = [] }

let n t = Array.length t.shards

let owner t key =
  let servlets = n t in
  if servlets = 0 then raise (Bad_map "empty map has no owners");
  Partition.servlet_of_key ~servlets key

let addr t i =
  if i < 0 || i >= n t then
    raise (Bad_map (Printf.sprintf "shard index %d out of range (%d shards)" i (n t)));
  t.shards.(i)

let parse_addr s =
  match String.rindex_opt s ':' with
  | None -> raise (Bad_map (Printf.sprintf "bad address %S (want HOST:PORT)" s))
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p <= 65535 && host <> "" -> (host, p)
      | _ -> raise (Bad_map (Printf.sprintf "bad address %S (want HOST:PORT)" s)))

let parse_addrs s =
  if s = "" then raise (Bad_map "empty shard list");
  String.split_on_char ',' s |> List.map parse_addr

let addr_to_string (host, port) = Printf.sprintf "%s:%d" host port

let to_string t =
  Printf.sprintf "v%d [%s]%s" t.version
    (String.concat ", " (Array.to_list t.shards |> List.map addr_to_string))
    (match t.pending with
    | [] -> ""
    | ks -> Printf.sprintf " (%d keys migrating)" (List.length ks))

(* --- on-disk persistence ---

   One binary file per shard directory so a SIGKILLed shard restarts with
   the map it last installed.  Written via tmp + fsync + rename + directory
   fsync: readers see the old map or the new one, never a torn write, and
   after a power loss the shard cannot come back on an older map that
   gives it keys it no longer owns. *)

let file_name = "shard.map"

let save ~dir t =
  let path = Filename.concat dir file_name in
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc (Wire.encode_shard_map t);
      Out_channel.flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path;
  Fbpersist.Persist.fsync_dir dir

let load ~dir =
  let path = Filename.concat dir file_name in
  if not (Sys.file_exists path) then None
  else
    let raw = In_channel.with_open_bin path In_channel.input_all in
    match Wire.decode_shard_map raw with
    | m -> Some m
    | exception Fbutil.Codec.Corrupt msg ->
        raise (Bad_map (Printf.sprintf "%s: corrupt (%s)" path msg))
