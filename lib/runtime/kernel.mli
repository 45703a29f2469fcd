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
    cursors pass, with no operand, in a read, write or accumulate set -
    which is how {!Exec.run} counts a run's footprints and decides
    whether its steps need a barrier, and how {!Validate} classifies a
    partition.  Plus:

    - {b traversal order}: when a conservative safety analysis proves
      reordering bit-exact (injective write maps, at most one
      same-address fiber axis per accumulate, no read/write aliasing
      besides identical maps), the axis with the most unit-stride
      references is rotated innermost so the inner loop walks arrays
      contiguously;
    - {b row specialization}: a single-write body of 1 to 5 reads runs
      a loop unrolled to its arity, with one local cursor per reference.
      When the write and every read advance by exactly [+1] along the
      innermost traversal axis (stencil5, example3, relax_inplace,
      diag_accumulate, whatever the pattern), the loop bumps them by a
      literal [1] and keeps every cursor in a register; otherwise it
      bumps them by their deltas.  Each trip of these loops runs two
      points, the second's loads after the first's store, and an odd
      row one point more.  Anything else runs the array-cursor
      loop.

    Value semantics are the interpreter's, bit for bit: reads summed in
    body order, [+. 1.0], the result stored or added through every
    write in body order.  Fuzz oracle 8 ({!Proptest.Oracle}) holds the
    two engines to byte-identical final buffers. *)

open Loopir

type box = Exec.box

type plan

val plan : ?force_generic:bool -> ?order:int array -> Exec.compiled -> plan
(** Lower a compiled nest, fixing the traversal-order deltas and the
    inner loop once.  [force_generic] disables the unit-stride loops:
    every row bumps its cursors by their deltas (benchmark baseline for
    the literal bumps, and their cross-check in the tests).  [order] overrides the traversal order ({e
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
(** The row loop picked: ["unit-stride"] when the rows bump their
    cursors by a literal [1] (see the module preamble), else
    ["generic"]. *)

val strides : plan -> (Reference.t * int array) list
(** Each body reference with its per-axis address deltas [m] (original
    axis order): [m.(k)] is exactly
    [address ref (i + e_k) - address ref i] for any in-bounds [i]. *)

val run_box : plan -> Exec.storage -> box -> unit
(** Execute every iteration of the box once (one parallel step's worth
    of one tile).  Degenerate axes (extent 1) are fine; an empty box
    ([hi < lo] somewhere) is a no-op.  [run_box plan storage] makes the
    body's two cursor arrays, so apply it once per domain and run every
    box of that domain through it: a box then allocates nothing.  The
    body belongs to the domain that applied it and raises
    [Invalid_argument] when called from any other (two domains on one
    pair of cursors would corrupt memory).  The box is not checked: one
    outside [Nest.bounds] reads and writes past the operands
    ({!Exec.run} and {!Exec.measure} reject such work before any box
    runs). *)

val observe :
  plan ->
  reads:Intmath.Bitset.t ->
  writes:Intmath.Bitset.t ->
  accumulates:Intmath.Bitset.t ->
  box ->
  unit
(** Add every element address the box's iterations reference, from
    {!run_box}'s cursors in its traversal order, with no load or store:
    each innermost row adds, per reference, the run of addresses its
    cursor passes as one {!Intmath.Bitset.add_run} (a unit stride fills
    whole bytes), not one bit per point.  A read's addresses go to
    [reads], a plain write's to [writes] and an accumulate's to
    [accumulates]: over the same box, the interpreter's read, write and
    accumulate sets ({!Exec.measure}).  A caller that wants fewer sets
    may pass one several times; {!Exec.run} and {!Validate} pass three
    and classify them with {!Measure.sharing}.  An empty box adds
    nothing.  Like {!run_box}, [observe plan ~reads ~writes
    ~accumulates] makes the body's cursors, so apply it once per domain:
    a box then allocates nothing, the body raises [Invalid_argument]
    on any other domain, and the box is not checked: one outside
    [Nest.bounds] sets bits past the sets. *)

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
    box run by {!run_box}, one body per domain: domain [p] executes
    [boxes.(p)] in each of [steps] steps of the shared loop ({!Sched}),
    on one buffer reset to the initial operands before every repeat;
    the fastest of [repeats] runs is reported. *)

val sequential : plan -> steps:int -> Exec.storage
(** The whole iteration space as one box on the calling domain, [steps]
    times, on fresh operands. *)
