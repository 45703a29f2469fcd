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
    appears on actual hardware.  {!run} drops that barrier where no
    element crosses domains: there is no such traffic to order. *)

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
    loops should apply it to the reference first. *)

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

val same_bits : storage -> storage -> bool
(** Whether two buffers hold the same bits, element by element: unlike
    [=], [0.0] and [-0.0] differ and a NaN equals itself.  How every
    value check compares buffers ({!Validate}, the kernel tests). *)

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
    exact fallback sets a bit ({!Intmath.Bitset}) for every address of
    the writes that meet a read span, over the whole iteration space,
    and probes it with the reads that meet one of those writes' spans. *)

(** {2 Work}

    What runs where is one {!Partition.Scheduling.work}, re-exported
    here: compile-time tiles with owners, or a self-scheduler's claims.
    Every pass steps through it with the one loop in {!Sched}, after
    {!Partition.Scheduling.check} (the box bodies - {!run_box},
    {!Kernel.run_box}, {!Kernel.observe} - address operands
    unchecked). *)

type box = Partition.Codegen.box
(** Inclusive per-axis bounds, indexed by loop axis - the loop bounds
    {!Partition.Codegen.tiles} produces. *)

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

type work = Partition.Scheduling.work =
  | Tiled of Partition.Scheduling.tiled
  | Dynamic of { space : box; chunk : remaining:int -> int }

val static_of_assignment : work -> work
(** The work itself, under an old converter's name: kept only for the
    pipeline benchmark's callers, and deleted with them. *)

val steps_of_nest : ?override:int -> Nest.t -> int
(** {!Loopir.Nest.steps}, under its old name: kept only for the
    pipeline benchmark's callers, and deleted with them. *)

type instrumented = {
  footprints : int array;  (** per domain, {!Measure.sharing}'s footprint *)
  iterations : int array;
  distinct_total : int;  (** {!Measure.sharing}'s distinct elements *)
  checksum : float;
  read_sets : Intmath.Bitset.t array;  (** per domain: elements it loads *)
  write_sets : Intmath.Bitset.t array;  (** per domain: its [Write] stores *)
  accumulate_sets : Intmath.Bitset.t array;  (** per domain: its [l$] adds *)
}

val measure :
  ?mode:Measure.mode -> Pool.t -> compiled -> work -> steps:int -> instrumented
(** One instrumented (untimed) execution of exactly [steps] steps on
    fresh operands ({!alloc}'s, whatever the nest), on the interpreter;
    its checksum is that of the buffer the execution leaves.  Each
    domain records every address it touches in its {!Intmath.Bitset}
    set for the reference's kind; [footprints] and [distinct_total] are
    {!Measure.sharing}'s counts of the three sets.  Every step ends at
    a barrier.  Nothing on the [Driver] path calls it, {!Validate}
    included: it is the reference that
    {!Kernel.observe}'s rows are checked against (fuzz oracles 3 and 9,
    test_kernel), and its checksum the one a barrier-free {!run} must
    reproduce (fuzz oracle 9).  [mode] is ignored: it once chose the
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
    interpreter, {!Kernel.run_box} for the strided kernels.  Every
    domain applies [box] to the call's one buffer once per pass, on
    itself, and runs its boxes through its own body. *)

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
    values {!alloc} gives, whatever the nest (unlike {!run}, which
    skips the reset where it cannot change the buffer).  A live [trace] records barrier waits, steps,
    and tile/chunk claims of {e every} repeat. *)

val observed_steps : work -> steps:int -> int
(** How many of [steps] steps {!run} observes: [1] for static work
    ([Tiled] without stealing), else [steps].  Addresses depend on the
    Doall indices only ({!cref}), so a domain that owns the same tiles
    every step touches the same elements every step, and its cumulative
    read and write sets are its first step's.  Work dealt at run time
    (stealing, self-scheduling) can move between domains from step to
    step. *)

val run :
  trace:Trace.t ->
  box:(storage -> box -> unit) ->
  observe:
    (reads:Intmath.Bitset.t ->
    writes:Intmath.Bitset.t ->
    accumulates:Intmath.Bitset.t ->
    box ->
    unit) ->
  Pool.t ->
  compiled ->
  work ->
  steps:int ->
  repeats:int ->
  Measure.raw
(** An observing pass, then the timed pass of {!time_with}, combined
    into a {!Measure.raw}.

    The observing pass comes first.  It steps through the work for
    {!observed_steps} steps - one for static work - untraced, with each
    box run as [observe ~reads:reads.(p) ~writes:writes.(p)
    ~accumulates:accumulates.(p)] on domain [p]'s three sets
    ({!Kernel.observe}): no operands, loads, stores or checksum.
    {!Measure.sharing} of the rows, the classifier {!Validate} reads
    too, gives the footprints, the per-domain flow-in, the elements
    that cross domains and the elements both read and written.  The
    footprints also feed the trace's elements-touched counter.

    The timed pass runs all [steps] steps, [repeats] times on one
    buffer, is traced, and gives the wall time and iterations of the
    fastest repeat.  The buffer the last repeat leaves is the report's
    [operands], summed once into its checksum.  When no element is both
    read and written and no write accumulates ({!Measure.Reused}), the
    repeats run back to back with no reset between them: every write
    then stores a value computed from elements no iteration writes, so
    each repeat stores the same values whatever the buffer held before
    it, and every repeat leaves a buffer bit-identical to the first's.
    Every other nest - one that reads what it writes, or accumulates -
    has its buffer reset to the initial operands before every repeat
    but the first ({!Measure.Reset_each}), as {!time} does.  When the
    work is static and no element crosses domains ({!Measure.Barrier_free}), its steps run
    with no barrier and no [Barrier] span: each domain runs its steps
    back to back.  The buffer is bit-identical to a run with barriers,
    since every written element is accessed by one domain only, in the
    order it had with them, and every other element is only read.  All
    other work ends every step at a barrier.  {!time} and {!time_with}
    observe and sum nothing; they and {!measure} keep a barrier every
    step, and {!time} and {!time_with} a reset before every repeat. *)

val sequential : compiled -> steps:int -> storage
(** Reference execution: every iteration in lexicographic order on the
    calling domain, over fresh operands; returns them.  The
    ground truth for {!Validate}'s value check. *)
