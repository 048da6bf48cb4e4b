(** Transactions for the key-value smart contract (§6.2): each transaction
    invokes a read or a write on a contract's own key-value state. *)

type op = Get of string | Put of string * string

type t = { contract : string; op : op }

val digest_batch : t list -> string
val of_ycsb : contract:string -> Workload.Ycsb.op -> t
