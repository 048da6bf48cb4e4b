(** Rolling hashes over a fixed-size byte window (§4.3.2 of the paper).

    The POS-Tree's leaf split function [P] needs a hash that can be updated
    in O(1) as the window slides by one byte.  The paper implements [P] as a
    cyclic-polynomial (buzhash) rolling hash; Rabin-Karp and moving-sum are
    the other rolling families it cites, provided here for the ablation
    benchmarks. *)

type kind = Cyclic_poly | Rabin_karp | Moving_sum

module type S = sig
  type t

  val create : window:int -> t
  (** A fresh hash whose window holds [window] bytes. *)

  val reset : t -> unit
  (** Empty the window (used at every chunk boundary so that chunk
      boundaries are a deterministic function of per-chunk content). *)

  val roll : t -> char -> unit
  (** Push one byte; once the window is full the oldest byte is evicted. *)

  val value : t -> int
  (** Current hash value (63 usable bits). *)

  val filled : t -> bool
  (** Whether a full window of bytes has been absorbed since [reset]. *)

  val feed_detect :
    t -> string -> chunk_size_before:int -> min_size:int -> mask:int -> bool
  (** Roll a whole string and report whether the split pattern (low [mask]
      bits of the hash all zero) occurred at any byte position where the
      chunk size had reached [min_size].  [chunk_size_before] is the number
      of chunk bytes absorbed before this string.  Batched fast path for
      the POS-Tree chunker. *)

  val find_boundary :
    t ->
    string ->
    off:int ->
    chunk_size_before:int ->
    min_size:int ->
    max_size:int ->
    mask:int ->
    int option
  (** Roll bytes from [off] until the pattern fires (respecting [min_size])
      or the chunk reaches [max_size]; returns [Some consumed] (bytes
      absorbed including the boundary byte) or [None] when the string ends
      first (all remaining bytes absorbed).  Fast path for byte-granular
      chunking (Blob). *)
end

module Cyclic : S
(** Cyclic polynomial / buzhash: rotate-and-xor over a fixed random byte
    table.  Default in ForkBase. *)

module Rabin : S
(** Polynomial hash H = Σ b^i·c_i in native 63-bit arithmetic. *)

module Sum : S
(** Moving sum of the window bytes — the cheapest, weakest family. *)

type any
(** Runtime-selected rolling hash (used by the chunker configuration). *)

val any : kind -> window:int -> any
val any_reset : any -> unit
val any_roll : any -> char -> unit
val any_value : any -> int

val any_feed_detect :
  any -> string -> chunk_size_before:int -> min_size:int -> mask:int -> bool

val any_find_boundary :
  any ->
  string ->
  off:int ->
  chunk_size_before:int ->
  min_size:int ->
  max_size:int ->
  mask:int ->
  int option
