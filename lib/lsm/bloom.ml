type t = { bits : Bytes.t; nbits : int }

let hashes = 7

let create ~expected =
  let nbits = max 64 (expected * 10) in
  { bits = Bytes.make ((nbits + 7) / 8) '\000'; nbits }

(* Double hashing: g_i(x) = h1(x) + i*h2(x). *)
let base_hashes key =
  let h1 = Hashtbl.hash key in
  let h2 = Hashtbl.hash (key ^ "\x01bloom") lor 1 in
  (h1, h2)

let set_bit t i =
  let byte = i / 8 and bit = i mod 8 in
  Bytes.set t.bits byte (Char.chr (Char.code (Bytes.get t.bits byte) lor (1 lsl bit)))

let get_bit t i =
  let byte = i / 8 and bit = i mod 8 in
  Char.code (Bytes.get t.bits byte) land (1 lsl bit) <> 0

let add t key =
  let h1, h2 = base_hashes key in
  for i = 0 to hashes - 1 do
    set_bit t (abs (h1 + (i * h2)) mod t.nbits)
  done

let mem t key =
  let h1, h2 = base_hashes key in
  let rec go i =
    i >= hashes || (get_bit t (abs (h1 + (i * h2)) mod t.nbits) && go (i + 1))
  in
  go 0
