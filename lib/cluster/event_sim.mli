(** Discrete-event simulation of a ForkBase cluster serving closed-loop
    clients — the substitute for the paper's 64-node testbed (Figure 8).

    Each servlet executes requests one at a time (the paper configures one
    execution thread per servlet); clients issue their next request as
    soon as the previous response arrives.  Service times are supplied by
    the caller — the benchmark harness measures them on the real
    single-servlet code path, so the simulation only adds the queueing and
    network behaviour of the cluster. *)

type config = {
  servlets : int;
  clients : int;
  requests : int;  (** total requests to complete *)
  service_time : unit -> float;  (** seconds; sampled per request *)
  network_delay : float;  (** one-way client-servlet delay in seconds *)
  route : int -> int;  (** request number -> servlet *)
}

type result = {
  throughput : float;  (** completed requests per simulated second *)
  avg_latency : float;  (** mean client-observed latency in seconds *)
}

val run : config -> result
