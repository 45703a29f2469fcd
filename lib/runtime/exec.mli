(** The multicore loop-nest interpreter: executes partitioned [Doall]
    nests over real shared operands on a {!Pool} of OCaml domains.

    Each affine reference [(G, a)] is compiled once into a closed-form
    row-major index function [c + m . i] via {!Machine.Layout.frame}, so
    the per-iteration work is exactly the address arithmetic plus the
    loads/stores the partitioned loop would perform on the real machine:
    reads are summed, [Write] stores the sum, and [Accumulate] (the
    paper's [l$] references) adds it in place.

    A nest's optional [Doseq] loop (Figure 9) becomes real re-execution:
    the pool's sense-reversing barrier separates the outer steps without
    respawning domains, which is where steady-state coherence traffic
    appears on actual hardware. *)

open Loopir
open Matrixkit

type compiled

type cref = { c : int; m : int array }
(** A compiled affine reference: the flat element address at iteration
    [i] is [c + m . i].  [m.(k)] is therefore the {e compile-time
    constant} address delta of one step along loop axis [k] - the
    strength-reduction fact {!Kernel} builds its incremental-address
    loops on. *)

val compile : ?bigarray:bool -> Nest.t -> compiled
(** Build the layout and index functions.  With [bigarray] the operand
    space is one [Bigarray.Array1] of float64 (off the OCaml heap, so
    domains share it with no GC write barriers); the default is a plain
    [float array]. *)

val nest : compiled -> Nest.t
val layout : compiled -> Machine.Layout.t
val total_elements : compiled -> int
val is_bigarray : compiled -> bool

val reads : compiled -> cref array
(** The compiled read references, in body order. *)

val writes : compiled -> (cref * bool) array
(** The compiled write-like references in body order, each flagged
    [true] when it accumulates.  Together with {!reads} this is the
    whole body semantics: the loads are summed, [+. 1.0] is applied,
    and the result is stored (or added) through every write. *)

val address : compiled -> Reference.t -> Ivec.t -> int
(** The flat element address the compiled reference touches at an
    iteration.  Partial application compiles the reference once, so
    validation loops should apply it to the reference first. *)

(** {2 Raw storage access}

    The resilient executor ({!Resilient}) runs its own tile body in the
    shared step loop ({!Sched}) instead of going through
    {!measure}/{!time}, so it needs the operand buffer and the
    per-point body as first-class values. *)

type storage

val alloc : compiled -> storage
(** Fresh operands with the deterministic initial values every execution
    path (including {!sequential}) starts from. *)

val exec_point : compiled -> storage -> Ivec.t -> unit
(** The loop body at one iteration point.  Partial application to the
    storage compiles the dispatch once. *)

val checksum : storage -> float
val to_float_array : storage -> float array

val view :
  storage ->
  [ `Flat of float array
  | `Big of (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t ]
(** The underlying buffer, for backends ({!Kernel}) that emit their own
    specialized loops over it. *)

val poke : storage -> int -> float -> unit
(** Overwrite one element - the corruption the [Corrupt] fault injects. *)

val plain_write_addresses : compiled -> Ivec.t -> int list
(** Addresses stored through non-accumulate writes at an iteration (the
    safe targets for an injected corruption: re-executing the iteration
    restores them). *)

val reexecution_safe : compiled -> bool
(** Whether tiles of this nest are idempotent: no iteration of the Doall
    body reads an address the body writes, and no write accumulates.
    Exactly then a partially executed or duplicated tile can be re-run
    (by any domain, any number of times) without changing the final
    buffer - the precondition for tile-level crash recovery. *)

(** {2 Work: tiles with owners}

    Compile-time work is one list of tiles, each owned by a domain -
    the shape of the SPMD code {!Partition.Codegen.emit_pseudocode}
    prints ([for t in my_tiles: for i = ...]).  Every pass steps
    through it with the one loop in {!Sched}. *)

type box = (int * int) array
(** Inclusive per-axis bounds, indexed by loop axis - the clipped
    rectangles {!Partition.Codegen.rect_tile_ranges} produces. *)

val iter_box : box -> (Ivec.t -> unit) -> unit
(** Every point of the box in lexicographic order.  The point passed
    is one scratch array, overwritten between calls: do not keep it. *)

val box_volume : box -> int

val run_box : compiled -> storage -> box -> unit
(** The interpreter over a box: {!exec_point} at each of its points, in
    lexicographic order.  Partial application to the storage compiles
    the dispatch once. *)

type tile =
  | Box of box  (** a rectangular tile, walked in place *)
  | Points of Ivec.t array
      (** an explicit point list: a parallelepiped tile, or a whole
          per-domain iteration list *)

type work =
  | Tiled of { tiles : tile array; owners : int array; steal : bool }
      (** tile [t] runs on domain [owners.(t)], each domain's tiles in
          order; with [steal], idle domains steal whole tiles from the
          back of the fullest queue *)
  | Dynamic of { points : Ivec.t array; chunk : remaining:int -> int }
      (** self-scheduling over the lexicographic iteration stream via a
          shared {!Pool.Counter}: chunk [fun ~remaining:_ -> 1] is
          cyclic, a constant is block-cyclic, [ceil remaining/P] is
          guided self-scheduling *)

val static_of_assignment : Partition.Scheduling.assignment -> work
(** One point tile per domain: domain [p] runs [a.(p)] in order. *)

val queues_of_assignment : Partition.Scheduling.assignment -> chunk:int -> work
(** Each domain's list cut into point tiles of [chunk] iterations, with
    stealing. *)

val of_boxes : box array array -> work
(** Domain [p] runs the box tiles [boxes.(p)] in order (the shape of
    {!Kernel.boxes_of_schedule}). *)

val steps_of_nest : ?override:int -> Nest.t -> int
(** The outer sequential trip count: [override], else the nest's
    [Doseq] extent, else 1. *)

type instrumented = {
  footprints : int array;  (** distinct elements touched per domain *)
  iterations : int array;
  distinct_total : int;
  exact : bool;  (** footprints counted exactly (vs Bloom estimate) *)
  checksum : float;
  buffer : float array;  (** final operand values, for value checks *)
}

val measure :
  Pool.t -> compiled -> work -> steps:int -> mode:Measure.mode -> instrumented
(** One instrumented (untimed) execution on fresh operands. *)

val time_with :
  box:(storage -> box -> unit) ->
  trace:Trace.t ->
  Pool.t ->
  compiled ->
  work ->
  steps:int ->
  repeats:int ->
  float * float array * int array
(** {!time} with box tiles run by [box storage] - {!run_box} for the
    interpreter, {!Kernel.run_box} for the strided kernels.  Point tiles
    and dynamic chunks always take the interpreter. *)

val time :
  ?trace:Trace.t ->
  Pool.t ->
  compiled ->
  work ->
  steps:int ->
  repeats:int ->
  float * float array * int array
(** [(wall, per_domain_seconds, per_domain_iterations)] of the fastest
    of [repeats] uninstrumented executions (minimum-of-N wall-clock,
    all timestamps on {!Mclock}).  A live [trace] records barrier
    waits, steps, and tile/chunk claims of {e every} repeat. *)

val run :
  trace:Trace.t ->
  box:(storage -> box -> unit) ->
  Pool.t ->
  compiled ->
  work ->
  steps:int ->
  repeats:int ->
  mode:Measure.mode ->
  Measure.raw
(** {!time_with} + {!measure} combined into a {!Measure.raw}.  The
    timed pass is traced; the instrumented pass (always the
    interpreter, over the same tiles) only feeds the trace's
    elements-touched counter from its per-domain footprints. *)

val sequential : compiled -> steps:int -> float array
(** Reference execution: every iteration in lexicographic order on the
    calling domain, over fresh operands; returns the final buffer.  The
    ground truth for {!Validate}'s determinism check. *)
