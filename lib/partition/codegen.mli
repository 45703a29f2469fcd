(** Tile-space code generation: turning a chosen tile into the
    per-processor iteration sets the Alewife compiler would emit loops for
    (Section 4, "Loop Partitioning" + code generation).

    A {!schedule} fixes the nest, the tile at the origin and the processor
    count, and provides the owner map from iterations to processors.  Tiles
    are anchored at the iteration-space lower bounds and numbered
    deterministically; tile [t] runs on processor [t mod nprocs] (for
    rectangular tiles with a processor grid this is the usual wrapped
    block distribution). *)

open Matrixkit
open Loopir

type schedule = private {
  nest : Nest.t;
  tile : Tile.t;
  nprocs : int;
  origin : Ivec.t;  (** iteration-space lower bounds *)
}

val make : Nest.t -> Tile.t -> nprocs:int -> schedule

val tile_id : schedule -> Ivec.t -> int array
(** Tile coordinates of an iteration (relative to the origin).  Partial
    application computes the tile's adjugate once. *)

val owner : schedule -> Ivec.t -> int
(** Processor that executes the iteration.  Partial application
    precomputes the tile numbering; reuse the closure over many
    iterations. *)

type box = (int * int) array
(** Inclusive per-axis bounds, indexed by loop axis.  Every iteration
    assignment is boxes: a tile's, a processor's ({!iterations_by_proc})
    and a run-time policy's ({!Scheduling}). *)

val iter_box : box -> (Ivec.t -> unit) -> unit
(** Every point of the box in lexicographic order.  The point passed
    is one scratch array, overwritten between calls: do not keep it. *)

val iter_boxes : box array -> (Ivec.t -> unit) -> unit
(** {!iter_box} over each box in turn. *)

val box_volume : box -> int

val iter_range : box -> int -> int -> (box -> unit) -> unit
(** [iter_range b lo hi f] calls [f] on boxes that together hold
    positions [lo .. hi - 1] of [b]'s lexicographic order, in that
    order, with [0 <= lo <= hi <= box_volume b]: per axis a partial
    head block, a block of whole rows and a partial tail block, so at
    most [2d - 1] boxes.  The box passed is one scratch array,
    overwritten between calls: do not keep it.  Partial application to
    the box precomputes its row sizes and that scratch, so use one
    application per domain. *)

val runs : Tile.t -> origin:Ivec.t -> box -> (int array -> box -> unit) -> unit
(** The row sweep: [runs tile ~origin b f] calls [f coords run] on
    every maximal run of [b] along the innermost axis whose points share
    their tile coordinates [floor((i - origin) adj L / det L)]
    ({!Tile.adjugate}), in lexicographic order.  Closed form per row:
    the work is proportional to the number of runs, not of points.
    [coords] is one scratch array; each [run] is fresh. *)

val tiles : schedule -> (int * box array) array
(** Every non-empty tile as [(owner, boxes)], in tile-number order: the
    loop bounds the code generator emits.  The boxes partition the
    tile's iterations, in lexicographic order.  A rectangular tile is
    one box clipped to the iteration space; a parallelepiped gives its
    runs from {!runs}. *)

val num_tiles : schedule -> int
(** Number of non-empty tiles covering the iteration space: a product
    of trip counts for rectangular tiles, the length of {!tiles}
    otherwise. *)

val iterations_by_proc : schedule -> box array array
(** Each processor's iterations in lexicographic order, as the maximal
    innermost-axis runs of {!runs} over the whole space, grouped by
    owner: no two consecutive boxes of a processor lie in one tile and
    touch.  The simulator's issue order (the runtime runs {!tiles} tile
    by tile instead). *)

val emit_pseudocode : schedule -> string
(** A human-readable rendition of the generated SPMD loop nest. *)

val load_balance : schedule -> int * int * float
(** [(min, max, imbalance)] iterations per processor (the box volumes of
    {!tiles}, summed by owner), where imbalance is
    [max /. average].  Never NaN: the degenerate no-iterations case
    reports [1.0], and a processor count above the trip count simply
    yields [min = 0] with the true ratio. *)
