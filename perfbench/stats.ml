(* Sample buffers and order statistics. *)

type buf = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 1024 0.; n = 0 }
let count b = b.n

let add b x =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0. in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  b.a.(b.n) <- x;
  b.n <- b.n + 1

let append dst src =
  for i = 0 to src.n - 1 do
    add dst src.a.(i)
  done

let sorted b =
  let s = Array.sub b.a 0 b.n in
  Array.sort Float.compare s;
  s

(* Nearest-rank quantile of a sorted array; [nan] when empty. *)
let quantile s q =
  let n = Array.length s in
  if n = 0 then Float.nan
  else
    let r = int_of_float (Float.ceil (q *. float_of_int n)) in
    s.(max 0 (min (n - 1) (r - 1)))

(* A percentile is reported only when at least ten samples lie beyond it. *)
let supports n q = float_of_int n *. (1. -. q) >= 10.

let median_list l = quantile (let a = Array.of_list l in Array.sort Float.compare a; a) 0.5

let sum b =
  let s = ref 0. in
  for i = 0 to b.n - 1 do
    s := !s +. b.a.(i)
  done;
  !s

let ratio num den = if den = 0. then 0. else num /. den
