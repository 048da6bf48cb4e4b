(* Shared random-operation driver for the differential state-machine
   tests: one SplitMix64 stream decides an operation, the driver applies
   it to the real [Db.t] and mirrors it into the pure [Fbcheck.Model],
   asserting along the way that the engine accepts exactly the operations
   the model predicts it should.

   Faults: an operation interrupted by [Chunk_store.Injected_fault] is
   reported as [`Faulted] and mirrored nowhere — every operation commits
   its branch-table mutations only after its last chunk put, so a failed
   put aborts the whole operation atomically.  Generation is driven by
   the model's own introspection (never by reading the db), so the op
   sequence for a seed does not depend on which faults fired. *)

module Splitmix = Fbutil.Splitmix
module Cid = Fbchunk.Cid
module Db = Forkbase.Db
module Model = Fbcheck.Model

type t = {
  rng : Splitmix.t;
  mutable db : Db.t;  (* swappable, so a harness can crash + reopen *)
  model : Model.t;
  mutable op_no : int;  (* uniquifies contexts, hence version uids *)
}

let create ~seed db =
  { rng = Splitmix.create seed; db; model = Model.create (); op_no = 0 }

let set_db t db = t.db <- db
let db t = t.db
let model t = t.model

let keys = [| "k0"; "k1"; "k2"; "k3"; "k4" |]
let branch_pool = [| "master"; "dev"; "exp"; "side" |]
let pick rng arr = arr.(Splitmix.int rng (Array.length arr))

let gen_string rng =
  let len = Splitmix.int rng 13 in
  String.init len (fun _ -> Char.chr (32 + Splitmix.int rng 95))

(* A value plus its model image.  Chunkable constructors write to the
   store, so this can raise [Injected_fault] under a fault schedule. *)
let gen_value rng db =
  match Splitmix.int rng 6 with
  | 0 ->
      let s = gen_string rng in
      (Db.str s, Model.MStr s)
  | 1 ->
      let i = Int64.of_int (Splitmix.int rng 1_000_000) in
      (Db.int i, Model.MInt i)
  | 2 ->
      let s = Splitmix.bytes rng (Splitmix.int rng 6000) in
      (Db.blob db s, Model.MBlob s)
  | 3 ->
      let l = List.init (Splitmix.int rng 41) (fun _ -> gen_string rng) in
      (Db.list db l, Model.MList l)
  | 4 ->
      let kvs =
        List.init (Splitmix.int rng 41) (fun j ->
            (Printf.sprintf "key%02d" j, gen_string rng))
      in
      (Db.map db kvs, Model.MMap kvs)
      (* keys are distinct and already sorted, so the model image is the
         binding list itself *)
  | _ ->
      let l = List.init (Splitmix.int rng 41) (fun _ -> gen_string rng) in
      (Db.set db l, Model.MSet (List.sort_uniq String.compare l))

let unexpected what e =
  failwith (Printf.sprintf "%s: unexpected %s" what (Db.error_to_string e))

let surprise_ok what = failwith (what ^ " succeeded; model predicted failure")
let surprise_err what e =
  failwith
    (Printf.sprintf "%s failed (%s); model predicted success" what
       (Db.error_to_string e))

(* All version uids of [key] the model knows as current heads. *)
let model_heads model ~key =
  List.filter_map
    (fun b -> Model.head model ~key ~branch:b)
    (Model.branches model ~key)
  @ Model.untagged model ~key

let read_back t what uid =
  match Db.get_version t.db uid with
  | Ok v -> Model.mvalue_of_value v
  | Error e -> unexpected (what ^ " read-back") e

(* Apply one random operation.  [fault_safe] restricts multi-commit
   operations (untagged merges of three or more heads) whose intermediate
   commits would not abort atomically under an injected put fault. *)
let random_op ?(fault_safe = false) t =
  t.op_no <- t.op_no + 1;
  let rng = t.rng and model = t.model in
  let context = Printf.sprintf "op-%d" t.op_no in
  let key = pick rng keys in
  let branch = pick rng branch_pool in
  try
    (match Splitmix.int rng 13 with
    | 0 | 1 | 2 | 3 ->
        let v, mv = gen_value rng t.db in
        let uid = Db.put t.db ~key ~branch ~context v in
        Model.apply_put model ~key ~branch ~uid mv
    | 4 -> (
        match model_heads model ~key with
        | [] -> ()
        | heads -> (
            let base = List.nth heads (Splitmix.int rng (List.length heads)) in
            let v, mv = gen_value rng t.db in
            match Db.put_at t.db ~key ~base ~context v with
            | Ok uid -> Model.apply_put_at model ~key ~base ~uid mv
            | Error e -> unexpected "put_at" e))
    | 5 -> (
        let from_branch = pick rng branch_pool in
        let pred =
          Model.head model ~key ~branch:from_branch <> None
          && Model.head model ~key ~branch = None
        in
        match (Db.fork t.db ~key ~from_branch ~new_branch:branch, pred) with
        | Ok (), true ->
            let uid = Option.get (Model.head model ~key ~branch:from_branch) in
            Model.apply_fork model ~key ~new_branch:branch ~uid
        | Ok (), false -> surprise_ok "fork"
        | Error e, true -> surprise_err "fork" e
        | Error _, false -> ())
    | 6 -> (
        let new_name =
          if Splitmix.bool rng then pick rng branch_pool
          else pick rng branch_pool ^ "2"
        in
        let pred =
          Model.head model ~key ~branch <> None
          && Model.head model ~key ~branch:new_name = None
        in
        match (Db.rename_branch t.db ~key ~target:branch ~new_name, pred) with
        | Ok (), true -> Model.apply_rename model ~key ~target:branch ~new_name
        | Ok (), false -> surprise_ok "rename_branch"
        | Error e, true -> surprise_err "rename_branch" e
        | Error _, false -> ())
    | 7 -> (
        let pred = Model.head model ~key ~branch <> None in
        match (Db.remove_branch t.db ~key ~target:branch, pred) with
        | Ok (), true -> Model.apply_remove model ~key ~target:branch
        | Ok (), false -> surprise_ok "remove_branch"
        | Error e, true -> surprise_err "remove_branch" e
        | Error _, false -> ())
    | 8 | 9 -> (
        let ref_b = pick rng branch_pool in
        match
          Db.merge ~resolver:Forkbase.Merge.Choose_left ~context t.db ~key
            ~target:branch ~ref_:(`Branch ref_b)
        with
        | Ok uid ->
            let tgt =
              match Model.head model ~key ~branch with
              | Some u -> u
              | None -> surprise_ok "merge (unknown target)"
            in
            let refu =
              match Model.head model ~key ~branch:ref_b with
              | Some u -> u
              | None -> surprise_ok "merge (unknown ref)"
            in
            let v = read_back t "merge" uid in
            Model.apply_merge model ~key ~target:branch ~bases:[ tgt; refu ]
              ~uid v
        | Error _ ->
            (* legitimately refused (unknown branch, conflicting kinds);
               check_against certifies nothing mutated *)
            ())
    | 10 -> (
        let heads = Model.untagged model ~key in
        let n = List.length heads in
        if n >= 2 then begin
          let k =
            if fault_safe || n = 2 then 2 else 2 + Splitmix.int rng (min 2 (n - 1))
          in
          let start = Splitmix.int rng (n - k + 1) in
          let chosen = List.filteri (fun i _ -> i >= start && i < start + k) heads in
          match
            Db.merge_untagged ~resolver:Forkbase.Merge.Choose_left ~context t.db
              ~key chosen
          with
          | Ok uid ->
              let v = read_back t "merge_untagged" uid in
              Model.apply_merge_untagged model ~key ~heads:chosen ~uid v
          | Error (Db.Merge_conflicts _) -> ()
          | Error e -> unexpected "merge_untagged" e
        end)
    | 11 -> (
        (* differential read: a head the model knows must read back to the
           model's value through the branch API too *)
        match Model.head model ~key ~branch with
        | None -> ()
        | Some uid -> (
            match Db.get ~branch t.db ~key with
            | Error e -> unexpected "get" e
            | Ok v -> (
                let actual = Model.mvalue_of_value v in
                match Model.value_of model ~key ~uid with
                | Some expected when not (Model.mvalue_equal expected actual) ->
                    failwith
                      (Printf.sprintf "get %S/%S: engine holds %s, model %s" key
                         branch
                         (Model.mvalue_to_string actual)
                         (Model.mvalue_to_string expected))
                | _ -> ())))
    | _ -> (
        (* version-graph spot check: any model head must verify *)
        match model_heads model ~key with
        | [] -> ()
        | heads ->
            let uid = List.nth heads (Splitmix.int rng (List.length heads)) in
            if not (Db.verify_version t.db uid) then
              failwith
                (Printf.sprintf "verify_version %s failed on a live head"
                   (Cid.short_hex uid))));
    `Applied
  with Fbchunk.Chunk_store.Injected_fault _ -> `Faulted

(* Drive [n] ops, diffing model against engine every [check_every] steps
   (and once at the end).  Raises [Failure] with the divergence report. *)
let run t ?(fault_safe = false) ?(check_every = 1) n =
  let faulted = ref 0 in
  for i = 1 to n do
    (match random_op ~fault_safe t with `Faulted -> incr faulted | `Applied -> ());
    if i mod check_every = 0 || i = n then
      match Model.check_against t.model t.db with
      | [] -> ()
      | problems ->
          failwith
            (Printf.sprintf "after op %d: %s" i (String.concat "; " problems))
  done;
  !faulted
