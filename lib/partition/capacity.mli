(** Cache-capacity blocking (the Section 2.2 remark).

    The analysis assumes caches large enough to hold a tile's footprint;
    when they are not, "the optimal loop partition aspect ratios do not
    change, rather, the size of each loop tile executed at any given time
    on the processor must be adjusted so that the data fits in the
    cache."  This module performs that adjustment: it shrinks the chosen
    tile - preserving its aspect ratio as closely as possible - until the
    cumulative footprint fits, and reorders each processor's iterations
    to walk subtile by subtile. *)

val footprint : Cost.t -> Tile.t -> int
(** Predicted per-tile working set (= {!Cost.misses_per_tile}). *)

val fits : Cost.t -> Tile.t -> capacity:int -> bool

val subtile : Cost.t -> Tile.t -> capacity:int -> Tile.t
(** The largest aspect-preserving shrink of a rectangular tile whose
    footprint fits in [capacity] elements (repeatedly halving the
    largest dimension).  Returns the tile unchanged when it already
    fits.  Raises [Invalid_argument] when even a single iteration's
    footprint exceeds the capacity, or on parallelepiped tiles. *)

val blocked_iterations : Codegen.schedule -> subtile:Tile.t -> Scheduling.work
(** The schedule's tiles ({!Codegen.tiles}), each reordered to complete
    one subtile before starting the next: the tile is cut under [subtile]
    anchored at its lower corner, so where the sizes divide a tile
    yields exactly its whole subtiles.  Tiles keep their tile-number
    order; within a tile the subtiles follow the lexicographic order of
    their coordinates, each walked lexicographically.  Feed to
    {!Machine.Sim.run_work} to observe the replacement-miss
    reduction. *)
