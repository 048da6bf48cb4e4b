module Splitmix = Fbutil.Splitmix
module Client = Fbremote.Client
module Procs = Fbremote.Procs
module Proc = Fbreplica.Proc
module Replica = Fbreplica.Replica
module Failpoint = Fbcheck.Failpoint
module Fsck = Fbcheck.Fsck
module Convergence = Fbcheck.Convergence
module Shard = Fbshard.Shard
module Dispatch = Fbshard.Dispatch

(* ------------------------------------------------------------------ *)
(* configuration *)

type config = {
  seed : int64;
  total_ops : int;
  followers : int;
  chaos_events : int;
  sync_every : int;
  verify_every : int;
  kv_keys : int;
  wiki_pages : int;
  accounts : int;
  theta : float;
  page_bytes : int;
  value_bytes : int;
  deadline : float option;
  sabotage_at : int option;
  scratch : string option;
  keep_scratch : bool;
  log : string -> unit;
}

let short_config ?(seed = 0x50AC_2026L) ?(ops = 400) ?(log = ignore) () =
  {
    seed;
    total_ops = ops;
    followers = 2;
    chaos_events = 5;
    sync_every = 8;
    verify_every = max 40 (ops / 3);
    kv_keys = 160;
    wiki_pages = 24;
    accounts = 32;
    theta = 0.7;
    page_bytes = 600;
    value_bytes = 40;
    deadline = None;
    sabotage_at = None;
    scratch = None;
    keep_scratch = false;
    log;
  }

let long_config ?(seed = 0x50AC_2026L) ?(seconds = 60.) ?(ops = 50_000)
    ?(log = ignore) () =
  {
    (short_config ~seed ~ops ~log ()) with
    followers = 2;
    chaos_events = max 8 (ops / 2_000);
    verify_every = max 500 (ops / 20);
    kv_keys = 2_000;
    wiki_pages = 200;
    accounts = 400;
    page_bytes = 2_000;
    value_bytes = 120;
    deadline = Some seconds;
  }

(* ------------------------------------------------------------------ *)
(* outcome and failure *)

type outcome = {
  ops_done : int;
  events_fired : (string * int) list;
  inline_checks : int;
  full_verifies : int;
  stores_fscked : int;
  convergence_checks : int;
  model_checks : int;
  faults_injected : int;
  ops_by_app : (string * int) list;
  timed_out : bool;
}

type failure = {
  f_seed : int64;
  f_at_op : int;
  f_what : string;
  f_detail : string list;
  f_schedule : string list;
  f_fired : string list;
  f_scratch : string;
  f_replay : string;
}

exception Soak_failed of failure

let failure_report f =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "SOAK FAILURE at op %d (seed 0x%Lx): %s\n" f.f_at_op
       f.f_seed f.f_what);
  List.iter (fun l -> Buffer.add_string b ("  " ^ l ^ "\n")) f.f_detail;
  Buffer.add_string b "chaos schedule:\n";
  List.iter (fun l -> Buffer.add_string b ("  " ^ l ^ "\n")) f.f_schedule;
  Buffer.add_string b
    (Printf.sprintf "events fired before the failure: %d\n"
       (List.length f.f_fired));
  List.iter (fun l -> Buffer.add_string b ("  " ^ l ^ "\n")) f.f_fired;
  Buffer.add_string b ("stores kept for post-mortem: " ^ f.f_scratch ^ "\n");
  Buffer.add_string b ("replay: " ^ f.f_replay ^ "\n");
  Buffer.contents b

let () =
  Printexc.register_printer (function
    | Soak_failed f -> Some (failure_report f)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* the driver: state, failure path and checks shared by every topology *)

let fresh_scratch cfg =
  match cfg.scratch with
  | Some d ->
      (try Unix.mkdir d 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      d
  | None ->
      let d =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "forkbase-soak-%d-%Lx" (Unix.getpid ()) cfg.seed)
      in
      Procs.rm_rf d;
      Unix.mkdir d 0o755;
      d

type driver = {
  cfg : config;
  schedule : string list;  (* the chaos schedule, rendered for reports *)
  replay : string;  (* the CLI command that replays this run *)
  scratch : string;
  apps : Apps.t;
  mutable op : int;
  mutable fired : string list;  (* rendered, newest first *)
  fired_kinds : (string, int) Hashtbl.t;
  mutable full_verifies : int;
  mutable stores_fscked : int;
  mutable convergence_checks : int;
  mutable model_checks : int;
  mutable faults_injected : int;
}

let driver cfg ~schedule ~replay =
  if cfg.total_ops < 10 then invalid_arg "Soak: need at least 10 ops";
  List.iter (fun s -> cfg.log ("scheduled " ^ s)) schedule;
  {
    cfg;
    schedule;
    replay;
    scratch = fresh_scratch cfg;
    apps =
      Apps.create ~seed:cfg.seed ~kv_keys:cfg.kv_keys ~wiki_pages:cfg.wiki_pages
        ~accounts:cfg.accounts ~theta:cfg.theta ~page_bytes:cfg.page_bytes
        ~value_bytes:cfg.value_bytes;
    op = 0;
    fired = [];
    fired_kinds = Hashtbl.create 8;
    full_verifies = 0;
    stores_fscked = 0;
    convergence_checks = 0;
    model_checks = 0;
    faults_injected = 0;
  }

let fail d ~what ~detail =
  raise
    (Soak_failed
       {
         f_seed = d.cfg.seed;
         f_at_op = d.op;
         f_what = what;
         f_detail = detail;
         f_schedule = d.schedule;
         f_fired = List.rev d.fired;
         f_scratch = d.scratch;
         f_replay = d.replay;
       })

let record_fired d ~kind line =
  Hashtbl.replace d.fired_kinds kind
    (1 + Option.value ~default:0 (Hashtbl.find_opt d.fired_kinds kind));
  d.fired <- line :: d.fired;
  d.cfg.log ("chaos " ^ line)

let fsck_dir_clean d ~ctx dir =
  let report = Fsck.check_dir dir in
  d.stores_fscked <- d.stores_fscked + 1;
  if not (Fsck.ok report) then
    fail d
      ~what:(Printf.sprintf "fsck violations in %s (%s)" dir ctx)
      ~detail:(List.map Fsck.violation_to_string report.Fsck.violations)

(* The full application state read through [c] must match the oracles. *)
let check_model d ~who ~reason c =
  let diff = Apps.check d.apps c in
  d.model_checks <- d.model_checks + 1;
  if diff <> [] then
    fail d
      ~what:
        (Printf.sprintf "%s state diverged from the model (%s)" who reason)
      ~detail:diff

let log_verified d ~reason what =
  d.full_verifies <- d.full_verifies + 1;
  d.cfg.log (Printf.sprintf "[op %d] verify ok (%s): %s" d.op reason what)

(* What the driver loop needs from the stores it runs against. *)
type topology = {
  traffic : unit -> Client.t;  (* the handle the workload goes through *)
  chaos : unit -> unit;  (* chaos events due at the current op *)
  between_ops : unit -> unit;  (* background work after each op *)
  verify : string -> unit;  (* quiesce and assert every invariant *)
  shutdown : unit -> unit;  (* graceful stop, then fsck every store *)
  teardown : unit -> unit;  (* always runs: kill processes, close stores *)
  kinds : string list;  (* chaos kinds the outcome reports *)
}

let drive d topo =
  let cfg = d.cfg in
  let started =
    match cfg.deadline with None -> 0. | Some _ -> Unix.gettimeofday ()
  in
  let over_deadline () =
    match cfg.deadline with
    | None -> false
    | Some s -> Unix.gettimeofday () -. started > s
  in
  let failed = ref true in
  Fun.protect
    ~finally:(fun () ->
      topo.teardown ();
      if (not !failed) && not cfg.keep_scratch then Procs.rm_rf d.scratch)
  @@ fun () ->
  let result =
    try
      let timed_out = ref false in
      while (not !timed_out) && d.op < cfg.total_ops do
        d.op <- d.op + 1;
        topo.chaos ();
        Apps.step d.apps (topo.traffic ()) ~op:d.op;
        topo.between_ops ();
        if d.op mod cfg.verify_every = 0 then topo.verify "periodic";
        if d.op land 63 = 0 && over_deadline () then timed_out := true
      done;
      topo.verify "final";
      topo.shutdown ();
      {
        ops_done = d.op;
        events_fired =
          List.map
            (fun k ->
              (k, Option.value ~default:0 (Hashtbl.find_opt d.fired_kinds k)))
            topo.kinds;
        inline_checks = Apps.inline_checks d.apps;
        full_verifies = d.full_verifies;
        stores_fscked = d.stores_fscked;
        convergence_checks = d.convergence_checks;
        model_checks = d.model_checks;
        faults_injected = d.faults_injected;
        ops_by_app = Apps.ops_by_app d.apps;
        timed_out = !timed_out;
      }
    with
    | Soak_failed _ as e -> raise e
    | Apps.Mismatch lines ->
        fail d ~what:"inline read-back diverged from the model" ~detail:lines
    | e ->
        fail d
          ~what:("unexpected exception: " ^ Printexc.to_string e)
          ~detail:(String.split_on_char '\n' (Printexc.get_backtrace ()))
  in
  failed := false;
  result

(* ------------------------------------------------------------------ *)
(* topology 1: a primary process plus in-process followers *)

type fnode = {
  mutable rep : Replica.t;
  mutable fdir : string;
  mutable fp : Failpoint.t;  (* current fault plan (disarmed = clean) *)
}

type st = {
  d : driver;
  port : int;  (* stable across restarts and promotions *)
  mutable pending : Chaos.scheduled list;
  mutable primary : Procs.t;
  mutable pdir : string;
  mutable client : Client.t;
  fols : fnode array;
  mutable fault_until : int option;
}

let connect st = Client.connect ~retries:100 ~port:st.port ()

let open_fnode st fn =
  fn.rep <-
    Replica.open_follower
      ~wrap_store:(Failpoint.store fn.fp)
      ~retries:10 ~dir:fn.fdir ~host:"127.0.0.1" ~port:st.port ()

(* A plan's [Failpoint.injected] counts every fault that fired (dropped
   reads included, which never raise); fold it into the run total when
   the plan is retired. *)
let retire_fp st fn next =
  st.d.faults_injected <- st.d.faults_injected + Failpoint.injected fn.fp;
  fn.fp <- next

let sync_once fn =
  match Replica.sync_step fn.rep with
  | (_ : Replica.progress) -> ()
  | exception Fbchunk.Chunk_store.Injected_fault _ ->
      (* an injected backfill failure; the next sync round retries *)
      ()

let catch_up st fn ~who =
  let gone = ref 0 in
  let rec go budget =
    if budget = 0 then
      fail st.d ~what:(who ^ " failed to catch up")
        ~detail:
          [
            Printf.sprintf "lag still %d after sync budget exhausted"
              (Replica.lag fn.rep);
          ]
    else
      match Replica.sync_step fn.rep with
      | exception Fbchunk.Chunk_store.Injected_fault _ -> go (budget - 1)
      | Replica.Caught_up when Replica.lag fn.rep = 0 -> ()
      | Replica.Primary_gone ->
          incr gone;
          if !gone > 5 then
            fail st.d ~what:(who ^ ": primary unreachable during catch-up")
              ~detail:[ Printf.sprintf "%d consecutive failed pulls" !gone ]
          else go (budget - 1)
      | (_ : Replica.progress) ->
          gone := 0;
          go (budget - 1)
  in
  go 5_000

let with_faults_paused st f =
  let armed = st.fault_until <> None in
  if armed then Array.iter (fun fn -> Failpoint.disarm fn.fp) st.fols;
  Fun.protect
    ~finally:(fun () ->
      if armed then Array.iter (fun fn -> Failpoint.arm fn.fp) st.fols)
    f

let client_heads c =
  Convergence.normalize
    (List.map
       (fun key ->
         ( key,
           List.map
             (fun (b, cid) -> (b, Fbchunk.Cid.to_hex cid))
             (Client.list_branches c ~key) ))
       (Client.list_keys c))

(* Quiesce and assert everything: followers caught up, heads converged,
   application state model-consistent on every store, follower stores
   fsck-clean.  Followers are read through embedded handles, the primary
   over the wire — the same verbs either way. *)
let verify_all st ~reason =
  let d = st.d in
  with_faults_paused st @@ fun () ->
  Array.iteri
    (fun i fn -> catch_up st fn ~who:(Printf.sprintf "follower %d" i))
    st.fols;
  let local fn = Client.local (Replica.db fn.rep) in
  let primary_heads = client_heads st.client in
  Array.iteri
    (fun i fn ->
      d.convergence_checks <- d.convergence_checks + 1;
      let diverged =
        Convergence.diff ~left_name:"primary"
          ~right_name:(Printf.sprintf "follower %d" i)
          ~left:primary_heads ~right:(client_heads (local fn))
      in
      if diverged <> [] then
        fail d
          ~what:(Printf.sprintf "replication diverged (%s)" reason)
          ~detail:diverged)
    st.fols;
  check_model d ~who:"primary" ~reason st.client;
  Array.iteri
    (fun i fn ->
      check_model d ~who:(Printf.sprintf "follower %d" i) ~reason (local fn);
      let report = Fsck.check_db (Replica.db fn.rep) in
      d.stores_fscked <- d.stores_fscked + 1;
      if not (Fsck.ok report) then
        fail d
          ~what:(Printf.sprintf "fsck violations on follower %d (%s)" i reason)
          ~detail:(List.map Fsck.violation_to_string report.Fsck.violations))
    st.fols;
  log_verified d ~reason
    (Printf.sprintf "%d keys converged on %d followers"
       (List.length primary_heads) (Array.length st.fols))

let close_client st =
  try Client.close st.client
  (* closing a connection to an already-dead server *)
  with _ -> () (* lint: allow no-swallow *)

let disarm_all st =
  Array.iter (fun fn -> Failpoint.disarm fn.fp) st.fols;
  st.fault_until <- None

let fire st ev =
  let d = st.d in
  record_fired d ~kind:(Chaos.kind_name ev)
    (Chaos.scheduled_to_string { Chaos.at = d.op; event = ev });
  match ev with
  | Chaos.Fault_followers { fp_seed; arm_ops } ->
      (* fresh per-follower fault plans from the event's seed; reopening
         the follower (a crash-recoverable restart in itself) is what
         threads the plan into its store *)
      let s = Splitmix.create fp_seed in
      Array.iter
        (fun fn ->
          Replica.close fn.rep;
          retire_fp st fn
            (Failpoint.random ~seed:(Splitmix.next s) ~ops:4096 ~put_fail:0.15
               ~get_drop:0.15 ());
          (* the store must reopen (recovery reads its own files) before
             the plan starts firing *)
          Failpoint.disarm fn.fp;
          open_fnode st fn;
          Failpoint.arm fn.fp)
        st.fols;
      st.fault_until <- Some (d.op + arm_ops)
  | Chaos.Kill_restart_primary ->
      close_client st;
      Procs.kill st.primary;
      fsck_dir_clean d ~ctx:"primary store after SIGKILL" st.pdir;
      st.primary <- Proc.spawn_primary ~port:st.port ~dir:st.pdir ();
      st.client <- connect st;
      verify_all st ~reason:"after kill-restart"
  | Chaos.Force_compaction ->
      let chunks, bytes = Client.checkpoint st.client in
      d.cfg.log
        (Printf.sprintf "[op %d] compaction reclaimed %d chunks, %d bytes"
           d.op chunks bytes);
      (* let the followers race the rotated journal right away *)
      Array.iter sync_once st.fols;
      verify_all st ~reason:"after forced compaction"
  | Chaos.Promote_follower ->
      (* quiesce, then fail over to follower 0's store on the same port *)
      disarm_all st;
      Array.iteri
        (fun i fn -> catch_up st fn ~who:(Printf.sprintf "follower %d" i))
        st.fols;
      close_client st;
      Procs.kill st.primary;
      fsck_dir_clean d ~ctx:"old primary after SIGKILL" st.pdir;
      let fn0 = st.fols.(0) in
      Replica.close fn0.rep;
      fsck_dir_clean d ~ctx:"follower store about to be promoted" fn0.fdir;
      let old_pdir = st.pdir in
      st.pdir <- fn0.fdir;
      st.primary <- Proc.spawn_primary ~port:st.port ~dir:st.pdir ();
      (* recycle the old primary's store as a fresh follower: it is a
         complete durable store, so it bootstraps by journal pull *)
      fn0.fdir <- old_pdir;
      retire_fp st fn0 (Failpoint.none ());
      open_fnode st fn0;
      st.client <- connect st;
      verify_all st ~reason:"after promotion"

(* the deliberate-corruption hook: prove a damaged store cannot pass *)
let sabotage st =
  let d = st.d in
  let fn0 = st.fols.(0) in
  Replica.close fn0.rep;
  let path = Filename.concat fn0.fdir "chunks.log" in
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = Bytes.create len in
  really_input ic b 0 len;
  close_in ic;
  let i = ref (len / 2) in
  while !i < len do
    Bytes.set b !i (Char.chr (Char.code (Bytes.get b !i) lxor 0x55));
    i := !i + 131
  done;
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  d.cfg.log
    (Printf.sprintf "[op %d] sabotage: corrupted %s from byte %d" d.op path
       (len / 2));
  let report = Fsck.check_dir fn0.fdir in
  d.stores_fscked <- d.stores_fscked + 1;
  if Fsck.ok report then
    fail d ~what:"sabotaged store passed fsck"
      ~detail:[ "corruption was injected but no violation was reported" ]
  else
    fail d ~what:"fsck violations on follower 0 (sabotaged store)"
      ~detail:(List.map Fsck.violation_to_string report.Fsck.violations)

let chaos_due st =
  let d = st.d in
  (match st.pending with
  | { Chaos.at; event } :: rest when at = d.op ->
      st.pending <- rest;
      fire st event
  | _ -> ());
  (match d.cfg.sabotage_at with Some n when n = d.op -> sabotage st | _ -> ());
  (* fault window closing? heal, then verify everything *)
  match st.fault_until with
  | Some u when d.op >= u ->
      disarm_all st;
      verify_all st ~reason:"after fault window"
  | _ -> ()

(* graceful shutdown, then fsck every store from its directory *)
let shutdown st =
  let d = st.d in
  disarm_all st;
  (try Client.quit_server st.client (* server may already be draining *)
   with _ -> () (* lint: allow no-swallow *));
  close_client st;
  Procs.reap st.primary;
  fsck_dir_clean d ~ctx:"primary store after shutdown" st.pdir;
  Array.iteri
    (fun i fn ->
      Replica.close fn.rep;
      fsck_dir_clean d
        ~ctx:(Printf.sprintf "follower %d store after shutdown" i)
        fn.fdir;
      (* reopen so teardown's close is harmless *)
      open_fnode st fn)
    st.fols;
  Array.iter (fun fn -> retire_fp st fn (Failpoint.none ())) st.fols

let teardown st =
  disarm_all st;
  close_client st;
  Procs.kill st.primary;
  Array.iter
    (* teardown of possibly-failed state *)
    (fun fn -> try Replica.close fn.rep with _ -> () (* lint: allow no-swallow *))
    st.fols

let run cfg =
  if cfg.followers < 1 then invalid_arg "Soak.run: need at least one follower";
  let schedule =
    Chaos.schedule ~seed:cfg.seed ~total_ops:cfg.total_ops
      ~events:cfg.chaos_events
  in
  let d =
    driver cfg
      ~schedule:(List.map Chaos.scheduled_to_string schedule)
      ~replay:
        (Printf.sprintf "forkbase soak --profile short --ops %d --seed 0x%Lx"
           cfg.total_ops cfg.seed)
  in
  let store i = Filename.concat d.scratch (Printf.sprintf "store-%d" i) in
  let primary = Proc.spawn_primary ~dir:(store 0) () in
  let port = Procs.port primary in
  let fols =
    Array.init cfg.followers (fun i ->
        {
          rep =
            Replica.open_follower ~retries:10 ~dir:(store (i + 1))
              ~host:"127.0.0.1" ~port ();
          fdir = store (i + 1);
          fp = Failpoint.none ();
        })
  in
  let st =
    {
      d;
      port;
      pending = schedule;
      primary;
      pdir = store 0;
      client = Client.connect ~retries:100 ~port ();
      fols;
      fault_until = None;
    }
  in
  drive d
    {
      traffic = (fun () -> st.client);
      chaos = (fun () -> chaos_due st);
      between_ops =
        (fun () ->
          if d.op mod cfg.sync_every = 0 then Array.iter sync_once st.fols);
      verify = (fun reason -> verify_all st ~reason);
      shutdown = (fun () -> shutdown st);
      teardown = (fun () -> teardown st);
      kinds = Chaos.all_kind_names;
    }

(* ------------------------------------------------------------------ *)
(* topology 2: shard processes behind a dispatcher *)

let run_sharded ~shards cfg =
  if shards < 2 then invalid_arg "Soak.run_sharded: need at least 2 shards";
  let kill_at = cfg.total_ops / 3 and add_at = 2 * cfg.total_ops / 3 in
  let d =
    driver cfg
      ~schedule:
        [
          Printf.sprintf "op %d: shard-kill (SIGKILL shard 0, respawn on its port)"
            kill_at;
          Printf.sprintf "op %d: shard-add (live fence/copy/lift rebalance)"
            add_at;
        ]
      ~replay:
        (Printf.sprintf
           "forkbase soak --profile short --shards %d --ops %d --seed 0x%Lx"
           shards cfg.total_ops cfg.seed)
  in
  let dir i = Filename.concat d.scratch (Printf.sprintf "shard-%d" i) in
  let dirs = ref (List.init shards dir) in
  let procs, map = Shard.spawn_cluster ~dirs:!dirs () in
  let procs = ref procs in
  let disp = Dispatch.of_map map in
  let handle = Dispatch.client disp in
  let kill_restart () =
    match (!procs, !dirs) with
    | victim :: rest, dir0 :: _ ->
        Procs.kill victim;
        record_fired d ~kind:"shard-kill"
          (Printf.sprintf "op %d: shard-kill (shard 0)" d.op);
        procs :=
          Shard.spawn ~port:(Procs.port victim) ~dir:dir0 ~self:0
            ~map:(Dispatch.map disp) ()
          :: rest
    | _ -> ()
  in
  let add_shard () =
    let self = Fbshard.Shard_map.n (Dispatch.map disp) in
    let p = Shard.spawn ~dir:(dir self) ~self ~map:(Dispatch.map disp) () in
    procs := !procs @ [ p ];
    dirs := !dirs @ [ dir self ];
    let moved =
      Dispatch.add_shard disp ~host:"127.0.0.1" ~port:(Procs.port p)
    in
    record_fired d ~kind:"shard-add"
      (Printf.sprintf "op %d: shard-add (shard %d, %d keys moved)" d.op self
         moved)
  in
  drive d
    {
      traffic = (fun () -> handle);
      chaos =
        (fun () ->
          if d.op = kill_at then kill_restart ();
          if d.op = add_at then add_shard ());
      between_ops = ignore;
      verify =
        (fun reason ->
          check_model d ~who:"cluster" ~reason handle;
          log_verified d ~reason
            (Printf.sprintf "application state matches on %d shards"
               (List.length !procs)));
      shutdown =
        (fun () ->
          Dispatch.quit_all disp;
          List.iter Procs.reap !procs;
          List.iter (fsck_dir_clean d ~ctx:"shard store after shutdown") !dirs);
      teardown =
        (fun () ->
          List.iter Procs.kill !procs;
          Dispatch.close disp);
      kinds = [ "shard-kill"; "shard-add" ];
    }
