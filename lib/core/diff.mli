(** Diff between two FObjects of the same type (§3.2).

    The paper pairs [Diff] with [LCA] as the two core version operations:
    the objects may live under different keys, only their types must
    match.  Results are type-specific and computed structurally over the
    POS-Trees, so cost is proportional to the difference, not the size. *)

type t =
  | Prim_diff of { left : Fbtypes.Prim.t; right : Fbtypes.Prim.t; equal : bool }
  | Blob_diff of {
      left_region : int * int;  (** (pos, len) differing in the left blob *)
      right_region : int * int;
      equal : bool;
    }
  | List_diff of {
      left_region : int * int;
      right_region : int * int;
      equal : bool;
    }
  | Map_diff of
      (string * [ `Left of string | `Right of string | `Changed of string * string ])
      list
  | Set_diff of [ `Left of string | `Right of string ] list

exception Type_mismatch of string * string
(** Raised with the two value kinds when they differ. *)

val diff_values : Fbtypes.Value.t -> Fbtypes.Value.t -> t
val summary : t -> string
(** One-line human description ("3 keys differ", "regions of 120/123
    bytes differ", …). *)
