type kind = Cyclic_poly | Rabin_karp | Moving_sum

module type S = sig
  type t

  val create : window:int -> t
  val reset : t -> unit
  val roll : t -> char -> unit
  val value : t -> int
  val filled : t -> bool

  val feed_detect :
    t -> string -> chunk_size_before:int -> min_size:int -> mask:int -> bool

  val find_boundary :
    t ->
    string ->
    off:int ->
    chunk_size_before:int ->
    min_size:int ->
    max_size:int ->
    mask:int ->
    int option
end

(* Shared circular window buffer. *)
module Window = struct
  type t = { buf : Bytes.t; mutable head : int; mutable count : int }

  let create n = { buf = Bytes.create n; head = 0; count = 0 }

  let reset t =
    t.head <- 0;
    t.count <- 0

  (* Push [c]; returns [Some oldest] if the window was full. *)
  let push t c =
    let n = Bytes.length t.buf in
    if t.count < n then begin
      Bytes.set t.buf ((t.head + t.count) mod n) c;
      t.count <- t.count + 1;
      None
    end
    else begin
      let old = Bytes.get t.buf t.head in
      Bytes.set t.buf t.head c;
      t.head <- (t.head + 1) mod n;
      Some old
    end

  let filled t = t.count = Bytes.length t.buf
end

module Cyclic = struct
  (* Byte table of 63-bit pseudo-random constants, fixed across runs so
     chunk boundaries are stable between processes. *)
  let table =
    let rng = Fbutil.Splitmix.create 0x466f726b42617365L (* "ForkBase" *) in
    Array.init 256 (fun _ -> Int64.to_int (Fbutil.Splitmix.next rng) land max_int)

  type t = { win : Window.t; mutable h : int; evict : int array }

  (* Rotations are over a 62-bit word: OCaml's native non-negative ints
     hold 62 value bits, and [max_int] = 2^62 - 1 is the matching mask. *)
  let rotl1 x = ((x lsl 1) land max_int) lor (x lsr 61)

  let rotl x n =
    let n = n mod 62 in
    if n = 0 then x else ((x lsl n) land max_int) lor (x lsr (62 - n))

  let create ~window =
    {
      win = Window.create window;
      h = 0;
      (* A byte evicted after [window] rolls has been rotated [window]
         times; pre-rotate the whole table once. *)
      evict = Array.map (fun x -> rotl x window) table;
    }

  let reset t =
    Window.reset t.win;
    t.h <- 0

  let roll t c =
    let h = rotl1 t.h lxor table.(Char.code c) in
    t.h <-
      (match Window.push t.win c with
      | None -> h
      | Some old -> h lxor t.evict.(Char.code old))

  let value t = t.h
  let filled t = Window.filled t.win

  (* Hot path of the POS-Tree chunker: one call per element, tight loop
     over bytes with the window arithmetic inlined. *)
  let feed_detect t s ~chunk_size_before ~min_size ~mask =
    let win = t.win in
    let buf = win.Window.buf in
    let wlen = Bytes.length buf in
    let n = String.length s in
    let h = ref t.h in
    let head = ref win.Window.head in
    let count = ref win.Window.count in
    let detected = ref false in
    let first_eligible = min_size - chunk_size_before - 1 in
    for i = 0 to n - 1 do
      let c = Char.code (String.unsafe_get s i) in
      let rolled = ((!h lsl 1) land max_int) lor (!h lsr 61) in
      let mixed = rolled lxor Array.unsafe_get table c in
      if !count < wlen then begin
        let idx = !head + !count in
        let idx = if idx >= wlen then idx - wlen else idx in
        Bytes.unsafe_set buf idx (Char.unsafe_chr c);
        incr count;
        h := mixed
      end
      else begin
        let old = Char.code (Bytes.unsafe_get buf !head) in
        Bytes.unsafe_set buf !head (Char.unsafe_chr c);
        head := if !head + 1 >= wlen then 0 else !head + 1;
        h := mixed lxor Array.unsafe_get t.evict old
      end;
      if i >= first_eligible && !h land mask = 0 then detected := true
    done;
    t.h <- !h;
    win.Window.head <- !head;
    win.Window.count <- !count;
    !detected

  (* Byte-granular boundary search with the same inlined arithmetic. *)
  let find_boundary t s ~off ~chunk_size_before ~min_size ~max_size ~mask =
    let win = t.win in
    let buf = win.Window.buf in
    let wlen = Bytes.length buf in
    let n = String.length s in
    let h = ref t.h in
    let head = ref win.Window.head in
    let count = ref win.Window.count in
    let pos = ref chunk_size_before in
    let i = ref off in
    let found = ref None in
    while !found = None && !i < n do
      let c = Char.code (String.unsafe_get s !i) in
      let rolled = ((!h lsl 1) land max_int) lor (!h lsr 61) in
      let mixed = rolled lxor Array.unsafe_get table c in
      if !count < wlen then begin
        let idx = !head + !count in
        let idx = if idx >= wlen then idx - wlen else idx in
        Bytes.unsafe_set buf idx (Char.unsafe_chr c);
        incr count;
        h := mixed
      end
      else begin
        let old = Char.code (Bytes.unsafe_get buf !head) in
        Bytes.unsafe_set buf !head (Char.unsafe_chr c);
        head := if !head + 1 >= wlen then 0 else !head + 1;
        h := mixed lxor Array.unsafe_get t.evict old
      end;
      incr pos;
      incr i;
      if (!pos >= min_size && !h land mask = 0) || !pos >= max_size then
        found := Some (!i - off)
    done;
    t.h <- !h;
    win.Window.head <- !head;
    win.Window.count <- !count;
    !found
end

module Rabin = struct
  let base = 1031

  type t = { win : Window.t; mutable h : int; pow_w : int }

  let create ~window =
    let rec pow acc n = if n = 0 then acc else pow (acc * base land max_int) (n - 1) in
    { win = Window.create window; h = 0; pow_w = pow 1 window }

  let reset t =
    Window.reset t.win;
    t.h <- 0

  let roll t c =
    let h = ((t.h * base) + Char.code c) land max_int in
    t.h <-
      (match Window.push t.win c with
      | None -> h
      | Some old -> (h - (Char.code old * t.pow_w)) land max_int)

  let value t = t.h
  let filled t = Window.filled t.win

  let feed_detect t s ~chunk_size_before ~min_size ~mask =
    let detected = ref false in
    let pos = ref chunk_size_before in
    String.iter
      (fun c ->
        roll t c;
        incr pos;
        if !pos >= min_size && value t land mask = 0 then detected := true)
      s;
    !detected

  let find_boundary t s ~off ~chunk_size_before ~min_size ~max_size ~mask =
    let n = String.length s in
    let pos = ref chunk_size_before and i = ref off and found = ref None in
    while !found = None && !i < n do
      roll t s.[!i];
      incr pos;
      incr i;
      if (!pos >= min_size && value t land mask = 0) || !pos >= max_size then
        found := Some (!i - off)
    done;
    !found
end

module Sum = struct
  type t = { win : Window.t; mutable h : int }

  let create ~window = { win = Window.create window; h = 0 }

  let reset t =
    Window.reset t.win;
    t.h <- 0

  let roll t c =
    let h = t.h + Char.code c in
    t.h <-
      (match Window.push t.win c with
      | None -> h
      | Some old -> h - Char.code old)

  let value t = t.h
  let filled t = Window.filled t.win

  let feed_detect t s ~chunk_size_before ~min_size ~mask =
    let detected = ref false in
    let pos = ref chunk_size_before in
    String.iter
      (fun c ->
        roll t c;
        incr pos;
        if !pos >= min_size && value t land mask = 0 then detected := true)
      s;
    !detected

  let find_boundary t s ~off ~chunk_size_before ~min_size ~max_size ~mask =
    let n = String.length s in
    let pos = ref chunk_size_before and i = ref off and found = ref None in
    while !found = None && !i < n do
      roll t s.[!i];
      incr pos;
      incr i;
      if (!pos >= min_size && value t land mask = 0) || !pos >= max_size then
        found := Some (!i - off)
    done;
    !found
end

type any = {
  a_reset : unit -> unit;
  a_roll : char -> unit;
  a_value : unit -> int;
  a_feed_detect : string -> chunk_size_before:int -> min_size:int -> mask:int -> bool;
  a_find_boundary :
    string ->
    off:int ->
    chunk_size_before:int ->
    min_size:int ->
    max_size:int ->
    mask:int ->
    int option;
}

let wrap (type a) (module M : S with type t = a) (t : a) =
  {
    a_reset = (fun () -> M.reset t);
    a_roll = (fun c -> M.roll t c);
    a_value = (fun () -> M.value t);
    a_feed_detect = M.feed_detect t;
    a_find_boundary = M.find_boundary t;
  }

let any kind ~window =
  match kind with
  | Cyclic_poly -> wrap (module Cyclic) (Cyclic.create ~window)
  | Rabin_karp -> wrap (module Rabin) (Rabin.create ~window)
  | Moving_sum -> wrap (module Sum) (Sum.create ~window)

let any_reset a = a.a_reset ()
let any_roll a c = a.a_roll c
let any_value a = a.a_value ()

let any_feed_detect a s ~chunk_size_before ~min_size ~mask =
  a.a_feed_detect s ~chunk_size_before ~min_size ~mask

let any_find_boundary a s ~off ~chunk_size_before ~min_size ~max_size ~mask =
  a.a_find_boundary s ~off ~chunk_size_before ~min_size ~max_size ~mask
