(** Work: which boxes run on which processor.

    One value says it for the simulator ({!Machine.Sim}), the validator,
    capacity blocking ({!Capacity}), every run of the runtime and the
    property oracles.  It is either the compile-time tiles, each owned
    by a processor - the shape of the SPMD code
    {!Codegen.emit_pseudocode} prints ([for t in my_tiles: for i =
    ...]) - or a run-time self-scheduler's claims over the lexicographic
    order of the iteration space.

    The introduction argues that run-time loop schedulers cannot
    optimize for cache locality because communication patterns are
    invisible or expensive to obtain at run time, citing Guided
    Self-Scheduling (Polychronopoulos & Kuck, the paper's reference
    [1]).  A [Dynamic] work's [chunk] names the classic policies:

    - {e cyclic}: one iteration per claim - perfect load balance, worst
      locality;
    - {e block-cyclic}: a constant chunk of consecutive iterations;
    - {e guided self-scheduling}: [ceil(remaining / P)] consecutive
      iterations per claim, the decreasing chunk of GSS.

    The runtime runs such work by claims from a shared counter; the
    simulator, which quantifies the argument against compile-time tiles,
    reads it through {!per_proc}, the one deterministic decoding of any
    work into each processor's boxes. *)

open Loopir

type box = Codegen.box
(** Inclusive per-axis bounds, indexed by loop axis. *)

type tile = box array
(** The boxes a tile covers, in execution order. *)

type tiled = { tiles : tile array; owners : int array; steal : bool }
(** Tile [t] runs on processor [owners.(t)], each processor's tiles in
    order; with [steal], idle processors steal whole tiles from the back
    of the fullest queue. *)

type work =
  | Tiled of tiled
  | Dynamic of { space : box; chunk : remaining:int -> int }
      (** self-scheduling over the lexicographic order of [space]: each
          claim takes [chunk ~remaining] consecutive positions (at least
          1, at most [remaining]), run as the boxes {!Codegen.iter_range}
          decodes them to.  [fun ~remaining:_ -> 1] is cyclic, a
          constant is block-cyclic, [ceil remaining/P] is guided
          self-scheduling *)

val tiled : steal:bool -> (int * tile) array -> tiled
(** [(owner, boxes)] tiles, as {!Codegen.tiles} returns them. *)

val of_tiles : (int * tile) array -> work
(** [Tiled] work over [(owner, boxes)] tiles, without stealing. *)

val pieces : chunk:int -> (int * tile) array -> work
(** Every tile cut into pieces of at most [chunk] iterations (its boxes'
    points in order, re-boxed by {!Codegen.iter_range}); each piece keeps
    its tile's owner, and idle processors steal. *)

val per_proc : nprocs:int -> work -> box array array
(** Each processor's boxes, in the order it runs them.  [Tiled]: each
    owner's tiles in tile order, as the runtime runs static tiles.
    [Dynamic]: the claims dealt round-robin, claim [c] to processor
    [c mod nprocs] - the order of a fair arrival model.  Stealing is
    not modelled: a tile stays with its owner. *)

val check : Nest.t -> nprocs:int -> work -> unit
(** Raises [Invalid_argument] unless [nprocs >= 1], each box (a
    [Dynamic] work's [space]) has the nest's depth and lies inside
    [Nest.bounds], and a [Tiled] work has one owner per tile, each in
    [0 .. nprocs - 1].  Every compiled body addresses operands
    unchecked, so each pass that runs boxes calls it once first: the
    runtime's passes, each fault-tolerant attempt and the simulator. *)

val loads : nprocs:int -> work -> int array
(** Iterations {!per_proc} gives each processor. *)

val total : work -> int
(** Number of iterations the work holds (for coverage checks). *)

val of_schedule : Codegen.schedule -> work
(** {!of_tiles} over {!Codegen.tiles}, under its old name: kept only for
    the pipeline benchmark's callers, and deleted with them. *)
