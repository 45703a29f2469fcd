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

val blocked_iterations :
  Codegen.schedule -> subtile:Tile.t -> Codegen.box array array
(** Each processor's iterations reordered to complete one subtile before
    starting the next (lexicographic within a subtile, subtiles in
    lexicographic order of their coordinates): each run of
    {!Codegen.iterations_by_proc} is cut at subtile boundaries and the
    pieces are stably sorted by subtile.  Feed to
    {!Machine.Sim.run_assignment} to observe the replacement-miss
    reduction. *)
