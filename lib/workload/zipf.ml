type t = { n : int; cumulative : float array }

let create ~n ~theta =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  let weights = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cumulative = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (weights.(i) /. total);
    cumulative.(i) <- !acc
  done;
  cumulative.(n - 1) <- 1.0;
  { n; cumulative }

let sample t rng =
  let u = Fbutil.Splitmix.float rng in
  (* First index whose cumulative probability exceeds u. *)
  let lo = ref 0 and hi = ref (t.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cumulative.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo
