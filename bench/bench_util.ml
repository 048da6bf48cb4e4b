(* Shared machinery for the experiment harness: scaling knobs, timing,
   percentiles, table printing, and a thin Bechamel wrapper for the
   micro-benchmarks. *)

type scale = Small | Paper

let scale_name = function Small -> "small" | Paper -> "paper"

(* [pick scale small paper] selects a parameter by scale. *)
let pick scale small paper = match scale with Small -> small | Paper -> paper

let now = Unix.gettimeofday

let time_it fn =
  let t0 = now () in
  let r = fn () in
  (now () -. t0, r)

(* Forked client workers: [fork_workers n body] runs [body i] in child
   [i] and returns a join.  A child whose [body] raises reports it and
   exits 1; the join reaps every child and fails loudly unless all exited
   0, so a crashed client is never credited with work it did not do. *)
let fork_workers n body =
  let pids =
    List.init n (fun i ->
        match Unix.fork () with
        | 0 ->
            Unix._exit
              (match body i with
              | () -> 0
              | exception e ->
                  prerr_endline ("bench worker: " ^ Printexc.to_string e);
                  1)
        | pid -> pid)
  in
  fun () ->
    let failed =
      List.filter
        (fun pid ->
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> false
          | _ -> true)
        pids
    in
    if failed <> [] then
      failwith
        (Printf.sprintf "%d of %d bench workers failed" (List.length failed) n)

(* The closed-loop client load every served-throughput experiment
   shares: [workers] forked children, child [w] opening its handle with
   [connect w] (the handle and its closer) and then running [op c w i]
   for [i] = 1..[ops] back to back.  Returns ops/s over the whole run,
   connects included; a child that fails fails the run (see
   {!fork_workers}). *)
let closed_loop ~workers ~ops ~connect op =
  let elapsed, () =
    time_it (fun () ->
        fork_workers workers
          (fun w ->
            let c, close = connect w in
            for i = 1 to ops do
              op c w i
            done;
            close ())
          ())
  in
  float_of_int (workers * ops) /. elapsed

(* A socket handle to the server on [port], for {!closed_loop}'s
   [connect]; retries ride out a server that is still starting. *)
let connect port =
  let c = Fbremote.Client.connect ~retries:20 ~port () in
  (c, fun () -> Fbremote.Client.close c)

(* Average seconds per call over [runs] invocations (after [warmup]). *)
let time_avg ?(warmup = 2) ~runs fn =
  for _ = 1 to warmup do
    ignore (fn ())
  done;
  let t0 = now () in
  for _ = 1 to runs do
    ignore (fn ())
  done;
  (now () -. t0) /. float_of_int runs

(* Interpolated percentile (the common "linear" / type-7 estimator): the
   rank [p * (n-1)] is fractional, so interpolate between the two nearest
   order statistics instead of floor-truncating — truncation systematically
   underestimates high percentiles on small samples (p99 of 100 samples
   would read the 98th rank, p90 of 2 samples the minimum). *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = p *. float_of_int (n - 1) in
    let rank = Float.min (float_of_int (n - 1)) (Float.max 0. rank) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. Float.floor rank in
    ((1. -. frac) *. sorted.(lo)) +. (frac *. sorted.(hi))

let sorted_of_list l =
  let a = Array.of_list l in
  (* [Float.compare], not polymorphic [compare]: a nan sample must sort
     deterministically instead of poisoning the whole ordering. *)
  Array.sort Float.compare a;
  a

(* --- output formatting --- *)

let section title =
  Printf.printf "\n=== %s ===\n%!" title

let subsection title = Printf.printf "--- %s ---\n%!" title

let row_header columns =
  Printf.printf "%s\n%!" (String.concat "\t" columns)

let row cells = Printf.printf "%s\n%!" (String.concat "\t" cells)

let ms seconds = Printf.sprintf "%.3f" (seconds *. 1000.0)

let human_bytes b =
  if b >= 10 * 1024 * 1024 then Printf.sprintf "%.1fMB" (float_of_int b /. 1048576.0)
  else if b >= 10 * 1024 then Printf.sprintf "%.1fKB" (float_of_int b /. 1024.0)
  else string_of_int b ^ "B"

(* --- bechamel wrapper --- *)

(* Estimated nanoseconds per call for each named thunk, via Bechamel's OLS
   over monotonic-clock samples. *)
let bechamel_ns ?(quota = 0.3) tests =
  let open Bechamel in
  let tests =
    List.map (fun (name, fn) -> Test.make ~name (Staged.stage fn)) tests
  in
  let grouped = Test.make_grouped ~name:"" ~fmt:"%s%s" tests in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ()
  in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols acc ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> est
        | Some _ | None -> nan
      in
      (name, ns) :: acc)
    results []
