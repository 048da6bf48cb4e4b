(* In-memory span recorder.  Every span carries a name, its start and end
   (seconds on the monotonic clock), the span that caused it and the id of
   the operation it belongs to.  Spans are only kept in memory while the
   run measures; [dump] writes them out once it is over. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  op : int;
  name : string;
  t0 : float;
  t1 : float;
}

type t = {
  mutable spans : span list;
  mutable next_id : int;
  mutable stack : int list;
  mutable op : int;
  mutable on : bool;
}

let now = Fbremote.Clock.monotonic
let create () = { spans = []; next_id = 0; stack = []; op = 0; on = false }
let set_op t op = t.op <- op

let with_span t name f =
  if not t.on then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let t0 = now () in
    let finish () =
      t.stack <- List.tl t.stack;
      t.spans <- { id; parent; op = t.op; name; t0; t1 = now () } :: t.spans
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

(* A span measured elsewhere (e.g. a re-run of one step after the
   operation), recorded with explicit times. *)
let record t ~name ~t0 ~t1 =
  if t.on then begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.spans <- { id; parent; op = t.op; name; t0; t1 } :: t.spans
  end

let spans t = List.rev t.spans

(* Per-span self time: its duration minus the time its direct children
   cover.  Children of a synchronous span lie inside it, so their
   durations add up to what they cover. *)
let self_times spans =
  let child = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0. (Hashtbl.find_opt child s.parent) in
        Hashtbl.replace child s.parent (prev +. (s.t1 -. s.t0)))
    spans;
  List.map
    (fun s ->
      let c = Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      (s, s.t1 -. s.t0 -. c))
    spans

type summary = { dur : Stats.buf; self : Stats.buf }

(* Durations and self times, grouped by span name. *)
let summarize spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let sm =
        match Hashtbl.find_opt tbl s.name with
        | Some sm -> sm
        | None ->
            let sm = { dur = Stats.create (); self = Stats.create () } in
            Hashtbl.replace tbl s.name sm;
            sm
      in
      Stats.add sm.dur (s.t1 -. s.t0);
      Stats.add sm.self self)
    (self_times spans);
  tbl

let median_us pick tbl name =
  match Hashtbl.find_opt tbl name with
  | None -> 0.
  | Some sm -> 1e6 *. Stats.quantile (Stats.sorted (pick sm)) 0.5

(* Median duration / self time, in microseconds, of the spans [name]. *)
let median_dur_us tbl name = median_us (fun sm -> sm.dur) tbl name
let median_self_us tbl name = median_us (fun sm -> sm.self) tbl name

let dump ~path ~label spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"phase\":%S,\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f}\n"
            label s.id s.parent s.op s.name s.t0 s.t1)
        spans)
