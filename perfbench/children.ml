(* Server child processes, their exit status and memory, and the
   benchmark's scratch directories. *)

exception Child_failed of string

let () =
  Printexc.register_printer (function
    | Child_failed msg -> Some ("server child failed: " ^ msg)
    | _ -> None)

type t = {
  label : string;
  pid : int;
  ports : int list;  (** the ports the child reported *)
  server_pids : int list;  (** the processes that serve (itself, or its shards) *)
}

(* Children not yet reaped, so a failing run can stop them all. *)
let live : t list ref = ref []

let forget t = live := List.filter (fun c -> c.pid <> t.pid) !live

(* Run this executable again as [args] (a fresh process, so the server's
   memory owes nothing to the load generator's heap) and read the one line
   it prints once listening: its ports, then the pids of the processes
   that serve. *)
let spawn ~label args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let line =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_line ic)
  in
  match line with
  | None ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid : int * Unix.process_status);
      raise (Child_failed (label ^ ": exited before listening"))
  | Some line -> (
      match String.split_on_char '/' line with
      | [ ports; pids ] ->
          let ints s = List.map int_of_string (String.split_on_char ',' s) in
          let t = { label; pid; ports = ints ports; server_pids = ints pids } in
          live := t :: !live;
          t
      | _ -> raise (Child_failed (label ^ ": bad hello line " ^ line)))

(* What a child prints once listening. *)
let hello ~ports ~pids =
  let join l = String.concat "," (List.map string_of_int l) in
  print_string (join ports ^ "/" ^ join pids ^ "\n");
  flush stdout

let describe = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s

(* Wait for [pid] until 30 seconds pass; then SIGKILL it. *)
let wait_pid pid =
  let deadline = Unix.gettimeofday () +. 30. in
  let rec loop () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid : int * Unix.process_status);
          None
        end
        else begin
          Unix.sleepf 0.005;
          loop ()
        end
    | _, status -> Some status
  in
  loop ()

(* Wait for a child asked to quit; anything but a clean exit fails the
   run. *)
let expect_clean_exit t =
  forget t;
  match wait_pid t.pid with
  | Some (Unix.WEXITED 0) -> ()
  | Some status -> raise (Child_failed (t.label ^ ": " ^ describe status))
  | None -> raise (Child_failed (t.label ^ ": did not exit within 30s of Quit"))

let gone pid =
  match Unix.kill pid 0 with
  | () -> false
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true

let kill t =
  forget t;
  List.iter
    (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    (t.pid :: t.server_pids);
  ignore (wait_pid t.pid : Unix.process_status option);
  (* shards are the cluster child's children: once it is gone, init reaps
     them *)
  let deadline = Unix.gettimeofday () +. 5. in
  while
    (not (List.for_all gone t.server_pids)) && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.01
  done

(* Peak resident set (VmHWM) of [pid], in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  let lines = In_channel.with_open_text path In_channel.input_lines in
  match
    List.find_map
      (fun l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] -> Scanf.sscanf v " %d kB" (fun kb -> Some kb)
        | _ -> None)
      lines
  with
  | Some kb -> float_of_int kb /. 1024.
  | None -> raise (Child_failed (Printf.sprintf "no VmHWM in %s" path))

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

(* File-system type of the mount holding [path] (from
   /proc/self/mountinfo: the longest mount point that prefixes it). *)
let fs_type path =
  let path = try Unix.realpath path with Unix.Unix_error _ -> path in
  let mount line =
    (* fields: id parent dev root mount-point options ... - fstype ... *)
    match String.split_on_char ' ' line with
    | _ :: _ :: _ :: _ :: mp :: rest -> (
        let rec after_dash = function
          | "-" :: fs :: _ -> Some (mp, fs)
          | _ :: tl -> after_dash tl
          | [] -> None
        in
        match after_dash rest with
        | Some (mp, _) as m
          when mp = "/" || mp = path || String.starts_with ~prefix:(mp ^ "/") path ->
            m
        | _ -> None)
    | _ -> None
  in
  let longer a b =
    match (a, b) with
    | Some (ma, _), Some (mb, _) when String.length mb > String.length ma -> b
    | None, b -> b
    | a, _ -> a
  in
  match In_channel.with_open_text "/proc/self/mountinfo" In_channel.input_lines with
  | lines ->
      List.fold_left (fun best l -> longer best (mount l)) None lines
      |> Option.fold ~none:"unknown" ~some:snd
  | exception Sys_error _ -> "unknown"

let kill_all () = List.iter kill !live
