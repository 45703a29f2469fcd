(** Kernel lowering: compile a [(nest, tile)] pair into specialized
    inner loops instead of interpreting the body point by point.

    {!Exec} pays, at {e every} iteration, the whole [c + m . i]
    multiply-add sum of every reference.
    But over a rectangular tile box the address of a compiled reference
    ({!Exec.cref}) changes by the compile-time constant [m.(k)] per unit
    step along axis [k].  A plan therefore precomputes the per-axis
    address deltas once, seeds one running address per reference at the
    box corner, and executes the box with incremental bumps only; every
    run path executes its boxes here.  The same cursor walk also
    observes a box ({!observe}): it sets the bit of every address the
    cursors pass, with no operand, which is how {!Exec.run} counts a
    run's footprints.  Plus:

    - {b traversal order}: when a conservative safety analysis proves
      reordering bit-exact (injective write maps, at most one
      same-address fiber axis per accumulate, no read/write aliasing
      besides identical maps), the axis with the most unit-stride
      references is rotated innermost so the inner loop walks arrays
      contiguously;
    - {b shape specialization}: the 5-point stencil shares one cursor
      among its five reads; every other single-write body of 1 to 5
      reads runs a loop with its cursors unrolled into registers, and
      anything else the array-cursor loop.

    Value semantics are the interpreter's, bit for bit: reads summed in
    body order, [+. 1.0], the result stored or added through every
    write in body order.  Fuzz oracle 8 ({!Proptest.Oracle}) holds the
    two engines to byte-identical final buffers. *)

open Loopir

type box = Exec.box

type plan

val plan : ?force_generic:bool -> ?order:int array -> Exec.compiled -> plan
(** Lower a compiled nest, fixing the traversal-order deltas and the
    inner loop once.  [force_generic] disables the stencil
    specialization (benchmark baseline for isolating the incremental
    addressing win).  [order] overrides the traversal order ({e
    bypassing} the safety analysis - test/bench use only); it must be a
    permutation of the axes, outermost first. *)

val order : plan -> int array
(** Chosen traversal order, outermost first.  The identity permutation
    unless the nest is {!reorderable} and a different innermost axis has
    strictly more unit-stride references. *)

val reorderable : plan -> bool
(** Whether the safety analysis proved every traversal order bit-exact
    (see the module preamble for the conditions).  In-place relaxations
    whose reads overlap their writes are the canonical [false]. *)

val shape : plan -> string
(** The specialization picked: ["stencil5"] or ["generic"]. *)

val strides : plan -> (Reference.t * int array) list
(** Each body reference with its per-axis address deltas [m] (original
    axis order): [m.(k)] is exactly
    [address ref (i + e_k) - address ref i] for any in-bounds [i]. *)

val run_box : plan -> Exec.storage -> box -> unit
(** Execute every iteration of the box once (one parallel step's worth
    of one tile).  Degenerate axes (extent 1) are fine; an empty box
    ([hi < lo] somewhere) is a no-op.  A box allocates only its two
    cursor arrays, so domains may share one [run_box plan storage].
    The box is not checked: one outside [Nest.bounds] reads and writes
    past the operands ({!Exec.run} and {!Exec.measure} reject such work
    before any box runs). *)

val observe : plan -> Measure.touched -> box -> unit
(** Add to the set every element address the box's iterations
    reference: one bit per reference per point, in {!run_box}'s
    traversal order and from its cursors, with no load or store - the
    set the interpreter's instrumented body ({!Exec.measure}) records
    over the same box.  An empty box adds nothing.  Like {!run_box}, a
    box allocates only its two cursor arrays and is not checked: one
    outside [Nest.bounds] sets bits past the set. *)

val boxes_of_schedule : Partition.Codegen.schedule -> box array array
(** {!Partition.Scheduling.of_schedule}, under its old name: kept only
    for the pipeline benchmark's callers, and deleted with them. *)

val time :
  ?trace:Trace.t ->
  Pool.t ->
  plan ->
  boxes:box array array ->
  steps:int ->
  repeats:int ->
  float * float array * int array
(** {!Exec.time} over {!Exec.static_of_assignment}[ boxes] with every
    box run by {!run_box}: domain [p] executes [boxes.(p)] in each of
    [steps] steps of the shared loop ({!Sched}), on one buffer reset to
    the initial operands before every repeat; the fastest of [repeats]
    runs is reported. *)

val sequential : plan -> steps:int -> Exec.storage
(** The whole iteration space as one box on the calling domain, [steps]
    times, on fresh operands. *)
