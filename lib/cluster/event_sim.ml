type config = {
  servlets : int;
  clients : int;
  requests : int;
  service_time : unit -> float;
  network_delay : float;
  route : int -> int;
}

type result = { throughput : float; avg_latency : float }

(* Binary min-heap of timed events. *)
module Heap = struct
  type 'a t = { mutable data : (float * 'a) array; mutable size : int }

  let create () = { data = Array.make 64 (0.0, Obj.magic 0); size = 0 }

  let push h time v =
    if h.size >= Array.length h.data then begin
      let bigger = Array.make (2 * Array.length h.data) h.data.(0) in
      Array.blit h.data 0 bigger 0 h.size;
      h.data <- bigger
    end;
    h.data.(h.size) <- (time, v);
    let i = ref h.size in
    h.size <- h.size + 1;
    while
      !i > 0
      &&
      let parent = (!i - 1) / 2 in
      fst h.data.(parent) > fst h.data.(!i)
    do
      let parent = (!i - 1) / 2 in
      let tmp = h.data.(parent) in
      h.data.(parent) <- h.data.(!i);
      h.data.(!i) <- tmp;
      i := parent
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      h.data.(0) <- h.data.(h.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && fst h.data.(l) < fst h.data.(!smallest) then smallest := l;
        if r < h.size && fst h.data.(r) < fst h.data.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = h.data.(!smallest) in
          h.data.(!smallest) <- h.data.(!i);
          h.data.(!i) <- tmp;
          i := !smallest
        end
      done;
      Some top
    end
end

type event =
  | Arrive of int (* request id reaches its servlet *)
  | Finish of int (* servlet finished executing request *)
  | Respond of int (* response reaches the client *)

let run cfg =
  if cfg.servlets <= 0 || cfg.clients <= 0 then invalid_arg "Event_sim.run";
  let heap = Heap.create () in
  let busy_until = Array.make cfg.servlets 0.0 in
  let queue_len = Array.make cfg.servlets 0 in
  let issue_time = Array.make cfg.requests 0.0 in
  let servlet_of = Array.init cfg.requests (fun i -> cfg.route i mod cfg.servlets) in
  let completed = ref 0 and issued = ref 0 in
  let total_latency = ref 0.0 in
  let last_time = ref 0.0 in
  let issue now =
    if !issued < cfg.requests then begin
      let id = !issued in
      issued := id + 1;
      issue_time.(id) <- now;
      Heap.push heap (now +. cfg.network_delay) (Arrive id)
    end
  in
  (* Closed loop: each client has one request in flight. *)
  for _ = 1 to min cfg.clients cfg.requests do
    issue 0.0
  done;
  let continue = ref true in
  while !continue do
    match Heap.pop heap with
    | None -> continue := false
    | Some (now, ev) -> (
        last_time := max !last_time now;
        match ev with
        | Arrive id ->
            let s = servlet_of.(id) in
            queue_len.(s) <- queue_len.(s) + 1;
            let start = max now busy_until.(s) in
            let finish = start +. cfg.service_time () in
            busy_until.(s) <- finish;
            Heap.push heap finish (Finish id)
        | Finish id ->
            let s = servlet_of.(id) in
            queue_len.(s) <- queue_len.(s) - 1;
            Heap.push heap (now +. cfg.network_delay) (Respond id)
        | Respond id ->
            incr completed;
            total_latency := !total_latency +. (now -. issue_time.(id));
            issue now)
  done;
  {
    throughput =
      (if !last_time > 0.0 then float_of_int !completed /. !last_time else 0.0);
    avg_latency =
      (if !completed > 0 then !total_latency /. float_of_int !completed else 0.0);
  }
