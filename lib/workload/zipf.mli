(** Zipfian sampling over [\[0, n)], used to model skewed key popularity
    (hot wiki pages, §6.3.2; YCSB request distributions).

    Item [i] is drawn with probability proportional to [1/(i+1)^theta].
    [theta = 0] degenerates to uniform. *)

type t

val create : n:int -> theta:float -> t
val sample : t -> Fbutil.Splitmix.t -> int
