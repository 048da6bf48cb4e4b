(* Machine-readable benchmark results.

   Every experiment reports its headline numbers through this module (in
   addition to the human tables it prints): [metric] rows accumulate under
   the experiment [main.ml] opened with [begin_experiment], and [flush]
   writes one [BENCH_<area>.json] file per experiment area into the
   directory given on the command line ([--json-dir]).  With no sink
   configured every call is a no-op, so experiments are instrumented
   unconditionally.

   The JSON is hand-emitted (no JSON library in the build) against a
   deliberately small schema:

   {
     "area": "persist",
     "git_rev": "<rev passed via --git-rev>",
     "scale": "small",
     "generated_by": "bench/main.exe",
     "experiments": [
       { "id": "durability", "scale": "small",
         "metrics": [ { "name": "...", "value": 123.4, "unit": "ops/s" } ] }
     ]
   }

   Committing these files per PR records the repo's performance
   trajectory: diffing two revisions' BENCH_*.json answers "what did this
   change do to the numbers" without re-reading log output. *)

type metric = { m_name : string; m_value : float; m_unit : string }

type experiment = {
  e_id : string;
  e_scale : string;
  mutable e_metrics : metric list;  (* reverse order *)
}

type sink = {
  dir : string;
  git_rev : string;
  scale : string;
  (* area -> experiments, both in first-seen order (kept reversed) *)
  mutable areas : (string * experiment list ref) list;
  mutable current : experiment option;
}

let sink : sink option ref = ref None

let set_sink ~dir ~git_rev ~scale =
  sink := Some { dir; git_rev; scale; areas = []; current = None }

let begin_experiment ~area ~id =
  match !sink with
  | None -> ()
  | Some s ->
      let e = { e_id = id; e_scale = s.scale; e_metrics = [] } in
      let bucket =
        match List.assoc_opt area s.areas with
        | Some b -> b
        | None ->
            let b = ref [] in
            s.areas <- s.areas @ [ (area, b) ];
            b
      in
      bucket := e :: !bucket;
      s.current <- Some e

let end_experiment () =
  match !sink with None -> () | Some s -> s.current <- None

let metric ~name ~value ~unit =
  match !sink with
  | None | Some { current = None; _ } -> ()
  | Some { current = Some e; _ } ->
      e.e_metrics <- { m_name = name; m_value = value; m_unit = unit } :: e.e_metrics

(* --- JSON emission --- *)

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_str buf s =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

(* JSON has no nan/infinity literals; a failed measurement becomes null. *)
let add_number buf v =
  if Float.is_nan v || Float.abs v = Float.infinity then
    Buffer.add_string buf "null"
  else Buffer.add_string buf (Printf.sprintf "%.9g" v)

let render_area ~git_rev ~scale area experiments =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"area\": ";
  add_str buf area;
  Buffer.add_string buf ",\n  \"git_rev\": ";
  add_str buf git_rev;
  Buffer.add_string buf ",\n  \"scale\": ";
  add_str buf scale;
  Buffer.add_string buf ",\n  \"generated_by\": \"bench/main.exe\"";
  Buffer.add_string buf ",\n  \"experiments\": [";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n    { \"id\": ";
      add_str buf e.e_id;
      Buffer.add_string buf ", \"scale\": ";
      add_str buf e.e_scale;
      Buffer.add_string buf ", \"metrics\": [";
      List.iteri
        (fun j m ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf "\n      { \"name\": ";
          add_str buf m.m_name;
          Buffer.add_string buf ", \"value\": ";
          add_number buf m.m_value;
          Buffer.add_string buf ", \"unit\": ";
          add_str buf m.m_unit;
          Buffer.add_string buf " }")
        (List.rev e.e_metrics);
      if e.e_metrics <> [] then Buffer.add_string buf "\n    ";
      Buffer.add_string buf "] }")
    (List.rev !experiments);
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let flush () =
  match !sink with
  | None -> ()
  | Some s ->
      if not (Sys.file_exists s.dir) then Unix.mkdir s.dir 0o755;
      List.iter
        (fun (area, experiments) ->
          let path = Filename.concat s.dir ("BENCH_" ^ area ^ ".json") in
          let oc = open_out path in
          output_string oc
            (render_area ~git_rev:s.git_rev ~scale:s.scale area experiments);
          close_out oc;
          Printf.printf "[json] wrote %s\n%!" path)
        s.areas
