(** Iteration-space tiles (Definitions 1-2 of the paper).

    A homogeneous hyperparallelepiped partition is fully described by its
    tile at the origin.  Rectangular tiles are stored by their per-dimension
    iteration counts (the paper's [lambda_k + 1], i.e. the diagonal of
    [Lambda] plus one); general tiles by their [L] matrix whose rows are
    the tile edge vectors ([L = Lambda (H^-1)^t], Definition 2). *)

open Intmath
open Matrixkit

type t =
  | Rect of int array  (** iterations per dimension, each [>= 1] *)
  | Pped of Imat.t  (** square [L]; rows are edge vectors *)

val rect : int array -> t
val pped : Imat.t -> t

val nesting : t -> int

val lambda : t -> int array
(** For rectangular tiles: the bound vector [lambda] (sizes minus one).
    Raises [Invalid_argument] on [Pped]. *)

val l_matrix : t -> Qmat.t
(** The [L] matrix over the rationals (diagonal for rectangular tiles). *)

val volume : t -> Rat.t
(** [|det L|]: the (continuous) number of iterations in the tile.  For
    rectangular tiles this is the product of the sizes. *)

val iterations : t -> Ivec.t list
(** Integer points of the tile at the origin (rectangular: the box
    [0..size_k - 1]; pped: the points of [S(L)]).  Enumerative. *)

val contains : t -> Ivec.t -> bool
(** Is the iteration-space point inside the tile at the origin?  Partial
    application precomputes {!tile_coords}. *)

val adjugate : t -> Imat.t * int
(** [(adj L, det L)]: the integer adjugate and determinant of [L], so
    that [i L^-1 = (i adj L) / det L] in integer arithmetic.  [det L]
    may be negative. *)

val tile_coords : t -> Ivec.t -> int array
(** Which tile of the homogeneous partition contains the point:
    [floor(i adj L / det L)] component-wise, which for rectangular tiles
    is [floor(i_k / size_k)].  Partial application computes {!adjugate}
    once; reuse the closure over many points. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
