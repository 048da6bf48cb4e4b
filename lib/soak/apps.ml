module Splitmix = Fbutil.Splitmix
module Client = Fbremote.Client
module Wire = Fbremote.Wire
module Am = Fbcheck.App_model
module Zipf = Workload.Zipf
module Mixer = Workload.Mixer
module Text_edit = Workload.Text_edit

type app = Kv | Wiki | Ledger

type t = {
  rng : Splitmix.t;
  mixer : app Mixer.t;
  kv_zipf : Zipf.t;
  kv_list_zipf : Zipf.t;
  wiki_zipf : Zipf.t;
  acct_zipf : Zipf.t;
  kv : Am.Kv.t;
  wiki : Am.Wiki.t;
  ledger : Am.Ledger.t;
  page_bytes : int;
  value_bytes : int;
  mutable inline_checks : int;
  mutable kv_ops : int;
  mutable wiki_ops : int;
  mutable ledger_ops : int;
}

exception Mismatch of string list

let () =
  Printexc.register_printer (function
    | Mismatch lines ->
        Some ("Apps.Mismatch: " ^ String.concat "; " lines)
    | _ -> None)

let list_cap = 12
let initial_balance = 1_000

let kv_str_key i = Printf.sprintf "kv:s:%05d" i
let kv_list_key i = Printf.sprintf "kv:l:%03d" i
let kv_set_key i = Printf.sprintf "kv:z:%03d" i
let wiki_key i = Printf.sprintf "wiki:%04d" i
let acct_key i = Printf.sprintf "acct:%04d" i
let meta_key = "chain:meta"

let create ~seed ~kv_keys ~wiki_pages ~accounts ~theta ~page_bytes ~value_bytes =
  if kv_keys <= 0 || wiki_pages <= 0 || accounts <= 1 then
    invalid_arg "Apps.create: need kv keys, wiki pages and >= 2 accounts";
  {
    rng = Splitmix.create seed;
    mixer = Mixer.create [ (Kv, 0.5); (Wiki, 0.3); (Ledger, 0.2) ];
    kv_zipf = Zipf.create ~n:kv_keys ~theta;
    kv_list_zipf = Zipf.create ~n:(1 + (kv_keys / 64)) ~theta;
    wiki_zipf = Zipf.create ~n:wiki_pages ~theta;
    acct_zipf = Zipf.create ~n:accounts ~theta;
    kv = Am.Kv.create ();
    wiki = Am.Wiki.create ();
    ledger = Am.Ledger.create ~accounts ~initial:initial_balance;
    page_bytes;
    value_bytes;
    inline_checks = 0;
    kv_ops = 0;
    wiki_ops = 0;
    ledger_ops = 0;
  }

(* --- value conversion into the model's domain --- *)

let aval_of_wire = function
  | Wire.Str s -> Am.AStr s
  | Wire.Blob b -> Am.ABlob b
  | Wire.List l -> Am.AList l
  | Wire.Map kvs -> Am.AMap kvs
  | Wire.Set l -> Am.ASet l

(* The application state as one handle reads it; an [Error] answer
   (unknown key or branch) reads as absent. *)
let reader c : Am.reader =
 fun ~key ~branch ->
  match Client.get ~branch c ~key with
  | v -> Some (aval_of_wire v)
  | exception Client.Remote_failure _ -> None

let inline_check t ~what ~key expected got =
  t.inline_checks <- t.inline_checks + 1;
  let matches =
    match (expected, got) with
    | None, None -> true
    | Some e, Some g -> Am.aval_equal e g
    | _ -> false
  in
  if not matches then
    raise
      (Mismatch
         [
           Printf.sprintf "%s %s: inline read: expected %s, store has %s" what
             key
             (match expected with
             | None -> "absent"
             | Some e -> Am.aval_to_string e)
             (match got with
             | None -> "absent"
             | Some g -> Am.aval_to_string g);
         ])

(* --- Redis-style KV --- *)

let kv_step t c ~op =
  t.kv_ops <- t.kv_ops + 1;
  let roll = Splitmix.int t.rng 100 in
  if roll < 45 then begin
    (* read-back, checked inline against the oracle *)
    let key = kv_str_key (Zipf.sample t.kv_zipf t.rng) in
    let expected = Option.map (fun v -> Am.AStr v) (Am.Kv.get t.kv ~key) in
    inline_check t ~what:"kv-str" ~key expected
      (reader c ~key ~branch:"master")
  end
  else if roll < 80 then begin
    let key = kv_str_key (Zipf.sample t.kv_zipf t.rng) in
    let v =
      Printf.sprintf "op%d:%s" op (Splitmix.alphanum t.rng t.value_bytes)
    in
    Am.Kv.set t.kv ~key v;
    ignore (Client.put c ~key (Wire.Str v) : Fbchunk.Cid.t)
  end
  else if roll < 92 then begin
    let key = kv_list_key (Zipf.sample t.kv_list_zipf t.rng) in
    let l = Am.Kv.push t.kv ~key ~cap:list_cap (Printf.sprintf "e%d" op) in
    ignore (Client.put c ~key (Wire.List l) : Fbchunk.Cid.t)
  end
  else begin
    let key = kv_set_key (Zipf.sample t.kv_list_zipf t.rng) in
    let l = Am.Kv.add_member t.kv ~key (Printf.sprintf "m%d" (Splitmix.int t.rng 64)) in
    ignore (Client.put c ~key (Wire.Set l) : Fbchunk.Cid.t)
  end

(* --- wiki: direct edits plus fork/edit/merge draft sessions --- *)

let edited t content =
  let e =
    Text_edit.random_edit t.rng ~page_len:(String.length content)
      ~update_ratio:0.8 ~edit_size:48
  in
  Text_edit.apply content e

let wiki_step t c ~op:_ =
  t.wiki_ops <- t.wiki_ops + 1;
  let page = wiki_key (Zipf.sample t.wiki_zipf t.rng) in
  match Am.Wiki.draft t.wiki ~page with
  | Some (branch, draft_content) ->
      if Splitmix.int t.rng 100 < 65 then begin
        (* edit the open draft *)
        let content = edited t draft_content in
        Am.Wiki.edit_draft t.wiki ~page content;
        ignore (Client.put ~branch c ~key:page (Wire.Blob content) : Fbchunk.Cid.t)
      end
      else begin
        (* merge the session back; target never moved, so the clean
           three-way merge must yield exactly the draft's content *)
        ignore
          (Client.merge ~resolver:"right" c ~key:page ~target:"master"
             ~ref_branch:branch
            : Fbchunk.Cid.t);
        Am.Wiki.merge_draft t.wiki ~page;
        let expected =
          Option.map (fun m -> Am.ABlob m) (Am.Wiki.master t.wiki ~page)
        in
        inline_check t ~what:"wiki-merge" ~key:page expected
          (reader c ~key:page ~branch:"master")
      end
  | None -> (
      match Am.Wiki.master t.wiki ~page with
      | None ->
          (* first touch: create the page *)
          let content =
            Text_edit.initial_page ~seed:(Splitmix.next t.rng) ~size:t.page_bytes
          in
          Am.Wiki.save t.wiki ~page content;
          ignore (Client.put c ~key:page (Wire.Blob content) : Fbchunk.Cid.t)
      | Some master ->
          if Splitmix.int t.rng 100 < 75 then begin
            let content = edited t master in
            Am.Wiki.save t.wiki ~page content;
            ignore (Client.put c ~key:page (Wire.Blob content) : Fbchunk.Cid.t)
          end
          else begin
            (* open a session: fork a fresh per-session branch *)
            let branch = Am.Wiki.open_draft t.wiki ~page in
            Client.fork c ~key:page ~from_branch:"master" ~new_branch:branch
          end)

(* --- ledger: zipf-skewed transfers under conservation --- *)

let ledger_step t c ~op =
  t.ledger_ops <- t.ledger_ops + 1;
  let roll = Splitmix.int t.rng 100 in
  if roll < 78 then begin
    let src = Zipf.sample t.acct_zipf t.rng in
    let dst = Zipf.sample t.acct_zipf t.rng in
    if src <> dst then begin
      let amount = 1 + Splitmix.int t.rng 100 in
      let (_ : int) = Am.Ledger.transfer t.ledger ~src ~dst ~amount in
      ignore
        (Client.put c ~key:(acct_key src)
           (Wire.Str (string_of_int (Am.Ledger.balance t.ledger src)))
          : Fbchunk.Cid.t);
      ignore
        (Client.put c ~key:(acct_key dst)
           (Wire.Str (string_of_int (Am.Ledger.balance t.ledger dst)))
          : Fbchunk.Cid.t)
    end
  end
  else if roll < 93 then begin
    let txid = Printf.sprintf "tx-%d" op in
    Am.Ledger.seal_block t.ledger ~txid;
    ignore
      (Client.put c ~key:meta_key
         (Wire.Map
            [
              ("height", string_of_int (Am.Ledger.height t.ledger));
              ("last", txid);
            ])
        : Fbchunk.Cid.t)
  end
  else begin
    (* audit read of a hot account, checked inline *)
    let i = Zipf.sample t.acct_zipf t.rng in
    let key = acct_key i in
    let expected =
      (* accounts untouched by any transfer were never written *)
      if Am.Ledger.written t.ledger i then
        Some (Am.AStr (string_of_int (Am.Ledger.balance t.ledger i)))
      else None
    in
    inline_check t ~what:"ledger-audit" ~key expected
      (reader c ~key ~branch:"master")
  end

let step t c ~op =
  match Mixer.pick t.mixer t.rng with
  | Kv -> kv_step t c ~op
  | Wiki -> wiki_step t c ~op
  | Ledger -> ledger_step t c ~op

let inline_checks t = t.inline_checks

let ops_by_app t =
  [ ("kv", t.kv_ops); ("wiki", t.wiki_ops); ("ledger", t.ledger_ops) ]

let check t c =
  let read = reader c in
  Am.Kv.check t.kv read
  @ Am.Wiki.check t.wiki read
  @ Am.Ledger.check t.ledger ~account_key:acct_key ~meta_key read
