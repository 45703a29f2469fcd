(** The multicore loop-nest interpreter: executes partitioned [Doall]
    nests over real shared operands on a {!Pool} of OCaml domains.

    Each affine reference [(G, a)] is compiled once into a closed-form
    row-major index function [c + m . i] by {!Machine.Layout.compile}, so
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

type cref = Machine.Layout.cref = { c : int; m : int array }
(** A compiled affine reference: the flat element address at iteration
    [i] is [c + m . i].  [m.(k)] is therefore the {e compile-time
    constant} address delta of one step along loop axis [k] - the
    strength-reduction fact {!Kernel} builds its incremental-address
    loops on. *)

val compile : ?bigarray:bool -> Nest.t -> compiled
(** Build the layout and index functions.  [bigarray] is ignored: it
    once selected a [Bigarray] operand space and stays in the signature
    only until its last callers drop it. *)

val nest : compiled -> Nest.t
val total_elements : compiled -> int

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
    {!measure}/{!time}, so it needs the operand buffer as a first-class
    value (and runs boxes on it with {!run_box}). *)

type storage = float array
(** All operands, row-major, in one flat buffer at the addresses
    {!address} computes.  A [float array] stores its elements unboxed,
    so a store takes no GC write barrier and the GC never scans it. *)

val alloc : compiled -> storage
(** Fresh operands with the deterministic initial values every execution
    path (including {!sequential}) starts from, stored by a plain loop
    into an uninitialised float array. *)

val checksum : storage -> float
(** The sum of the buffer in index order. *)

val plain_write_addresses : compiled -> Ivec.t -> int list
(** Addresses stored through non-accumulate writes at an iteration (the
    safe targets for an injected corruption: re-executing the iteration
    restores them). *)

val reexecution_safe : compiled -> bool
(** Whether tiles of this nest are idempotent: no iteration of the Doall
    body reads an address the body writes, and no write accumulates.
    Exactly then a partially executed or duplicated tile can be re-run
    (by any domain, any number of times) without changing the final
    buffer - the precondition for tile-level crash recovery.

    The decision is exact but first compares address ranges: each
    reference's {!span} over the iteration space.  A write whose span
    overlaps no read's span can never clash, and references to
    different arrays never overlap (their {!Machine.Layout} frames are
    disjoint).  When no write meets a read this way the answer is
    [true] after O(references) work and no enumeration.  Otherwise the
    exact fallback hashes every address of the writes that meet a read
    span, over the whole iteration space, and probes the addresses of
    the reads that meet one of those writes' spans. *)

(** {2 Work: tiles with owners}

    Compile-time work is one list of tiles, each owned by a domain -
    the shape of the SPMD code {!Partition.Codegen.emit_pseudocode}
    prints ([for t in my_tiles: for i = ...]).  Every pass steps
    through it with the one loop in {!Sched}. *)

type box = Partition.Codegen.box
(** Inclusive per-axis bounds, indexed by loop axis - the loop bounds
    {!Partition.Codegen.tiles} produces. *)

val iter_box : box -> (Ivec.t -> unit) -> unit
(** {!Partition.Codegen.iter_box}. *)

val box_volume : box -> int
(** {!Partition.Codegen.box_volume}. *)

val iter_range : box -> int -> int -> (box -> unit) -> unit
(** {!Partition.Codegen.iter_range}: the at most [2d - 1] boxes of
    positions [lo .. hi - 1] of a box's lexicographic order. *)

val span : box -> cref -> int * int
(** [(lo, hi)]: the least and greatest address the reference touches
    over a non-empty box, from [c], [m] and the bounds in O(depth)
    steps.  Both are attained, at corners of the box. *)

val run_box : compiled -> storage -> box -> unit
(** The interpreter over a box: the loop body at each of its points, in
    lexicographic order, built once per storage.  No run path uses it:
    it is the reference {!Kernel.run_box} is checked against.  Like
    {!Kernel.run_box}, it does not check the box: one outside
    [Nest.bounds] reads and writes past the operands. *)

type tile = box array
(** The boxes a tile covers, in execution order. *)

type work =
  | Tiled of { tiles : tile array; owners : int array; steal : bool }
      (** tile [t] runs on domain [owners.(t)], each domain's tiles in
          order; with [steal], idle domains steal whole tiles from the
          back of the fullest queue *)
  | Dynamic of { space : box; chunk : remaining:int -> int }
      (** self-scheduling over the lexicographic order of the iteration
          space via a shared {!Pool.Counter}: each claimed index range
          runs as the boxes {!iter_range} decodes it to.  Chunk
          [fun ~remaining:_ -> 1] is cyclic, a constant is
          block-cyclic, [ceil remaining/P] is guided self-scheduling *)

(** {!measure} and every timed call ({!time}, {!time_with}, {!run})
    first check the work once, outside the timed region: each box (a
    [Dynamic] work's [space]) must have the nest's depth and lie inside
    [Nest.bounds], else [Invalid_argument]. *)

val of_tiles : (int * tile) array -> work
(** [(owner, boxes)] tiles, as {!Partition.Codegen.tiles} returns them,
    without stealing. *)

val pieces : chunk:int -> (int * tile) array -> work
(** Every tile cut into pieces of at most [chunk] iterations (its boxes'
    points in order, re-boxed by {!iter_range}); each piece keeps its
    tile's owner, and idle domains steal. *)

val static_of_assignment : Partition.Scheduling.assignment -> work
(** Domain [p] runs the boxes [a.(p)], in order, as one tile. *)

val steps_of_nest : ?override:int -> Nest.t -> int
(** {!Loopir.Nest.steps}: [override], else the nest's [Doseq] extent,
    else 1. *)

type instrumented = {
  footprints : int array;  (** distinct elements touched per domain *)
  iterations : int array;
  distinct_total : int;
  checksum : float;
  buffer : storage;  (** the operands the pass ran on, for value checks *)
}

val measure :
  ?mode:Measure.mode -> Pool.t -> compiled -> work -> steps:int -> instrumented
(** One instrumented (untimed) execution of exactly [steps] steps on
    fresh operands, on the interpreter; its checksum and buffer are
    those of that execution.  Footprints are exact distinct-element
    counts ({!Measure.touched}).  No run path calls it: it is the
    reference the observing pass of {!run} is checked against
    (fuzz oracle 3, {!Validate}).  [mode] is ignored: it once chose the
    instrument and stays only until its last readers drop it. *)

val time_with :
  box:(storage -> box -> unit) ->
  trace:Trace.t ->
  Pool.t ->
  compiled ->
  work ->
  steps:int ->
  repeats:int ->
  float * float array * int array
(** {!time} with every box run by [box storage] - {!run_box} for the
    interpreter, {!Kernel.run_box} for the strided kernels.  [box] is
    applied to the call's one buffer once. *)

val time :
  ?trace:Trace.t ->
  Pool.t ->
  compiled ->
  work ->
  steps:int ->
  repeats:int ->
  float * float array * int array
(** [(wall, per_domain_seconds, per_domain_iterations)] of the fastest
    of [repeats] uninstrumented executions on the reference {!run_box}
    (minimum-of-N wall-clock, all timestamps on {!Mclock}).  The
    repeats share one buffer, reset to the initial operands by a plain
    loop before every repeat but the first, so each starts from the
    values {!alloc} gives.  A live [trace] records barrier waits, steps,
    and tile/chunk claims of {e every} repeat. *)

val observed_steps : work -> steps:int -> int
(** How many of [steps] steps {!run} observes for footprints: [1] for
    static work ([Tiled] without stealing), else [steps].  Addresses
    depend on the Doall indices only ({!cref}), so a domain that owns
    the same tiles every step touches the same elements every step,
    and its cumulative footprint is its first step's.  Work dealt at
    run time (stealing, self-scheduling) can move between domains from
    step to step. *)

val run :
  trace:Trace.t ->
  box:(storage -> box -> unit) ->
  observe:(Measure.touched -> box -> unit) ->
  Pool.t ->
  compiled ->
  work ->
  steps:int ->
  repeats:int ->
  Measure.raw
(** {!time_with} plus an observing pass, combined into a
    {!Measure.raw}.  The timed pass runs all [steps] steps, is traced,
    and gives the wall time, iterations and checksum: the sum of the
    buffer the fastest repeat's box bodies produced.  The observing
    pass steps through the same work for {!observed_steps} steps - one
    for static work - untraced, with each box run as [observe
    touched.(p)] on domain [p]'s set ({!Kernel.observe}): no operands,
    loads, stores or checksum.  Its footprints also feed the trace's
    elements-touched counter. *)

val sequential : compiled -> steps:int -> storage
(** Reference execution: every iteration in lexicographic order on the
    calling domain, over fresh operands; returns them.  The
    ground truth for {!Validate}'s determinism check. *)
