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
(** Inclusive per-axis bounds, indexed by loop axis. *)

val iter_box : box -> (Ivec.t -> unit) -> unit
(** Every point of the box in lexicographic order.  The point passed
    is one scratch array, overwritten between calls: do not keep it. *)

val tiles : schedule -> (int * box array) array
(** Every non-empty tile as [(owner, boxes)], in tile-number order: the
    loop bounds the code generator emits.  The boxes partition the
    tile's iterations, in lexicographic order.  A rectangular tile is
    one box clipped to the iteration space; a parallelepiped gives its
    maximal runs along the innermost axis, found per row in closed form
    from [adj L] ({!Tile.adjugate}) - the work is proportional to the
    number of runs, not of iterations. *)

val num_tiles : schedule -> int
(** Number of non-empty tiles covering the iteration space: a product
    of trip counts for rectangular tiles, the length of {!tiles}
    otherwise. *)

val iterations_by_proc : schedule -> Ivec.t list array
(** All iterations grouped by executing processor, each list in
    lexicographic order.  Enumerates the full space - intended for the
    simulator and for spaces up to a few million points. *)

val emit_pseudocode : schedule -> string
(** A human-readable rendition of the generated SPMD loop nest. *)

val load_balance : schedule -> int * int * float
(** [(min, max, imbalance)] iterations per processor, where imbalance is
    [max /. average].  Never NaN: the degenerate no-iterations case
    reports [1.0], and a processor count above the trip count simply
    yields [min = 0] with the true ratio. *)
