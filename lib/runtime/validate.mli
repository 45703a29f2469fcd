(** Closing the loop between the analytic model, the deterministic
    simulator and the real multicore runtime.

    For a schedule this module checks, on the tiles it runs, without
    executing anything:

    - {b write-race freedom}: in a [Doall] pass, every element reached
      through a plain [Write] reference is written by at most one
      processor.  Contended [Accumulate] ([l$]) elements are legal - the
      paper's Appendix A makes them atomic - but are reported, together
      with the {!Partition.Cost} classes that predict them (written
      classes whose [G] has a null row, i.e. tiled reduction
      dimensions).
    - {b footprint agreement}: the distinct elements each domain's
      boxes touch, as the runtime's cursors observe them, equal what
      {!Machine.Sim} counts for the same assignment, and both sit
      against the Theorem 2/4 prediction.
    - {b determinism / values}: when no element written by one processor
      is read or written by another, the parallel execution must produce
      bit-identical operands to the sequential reference run: the
      operands the caller's run left are compared with
      {!Exec.sequential}'s at the run's steps.

    The race and determinism checks read three rows per domain [p]:
    [R_p] (reads), [W_p] (plain writes) and [A_p] (accumulates).
    {!check_schedule} fills them by walking each owner's boxes through
    {!Kernel.observe}, the cursor walk the run reports its footprints
    from, on the calling domain: no pool, interpreter or operands.
    {!Measure.sharing}, the classifier {!Exec.run}'s barrier rule reads,
    lists the write races and contended accumulates and counts the
    elements that cross domains; {!classify} only attributes the listed
    elements to arrays by {!Machine.Layout.element_of}.  The sets take
    [3 · P · (universe / 8 + 256)] bytes, whatever the number of
    iterations. *)

open Partition

type verdict = {
  nest_name : string;
  nprocs : int;
  policy : string;
  sim_footprints : int array;  (** {!Machine.Sim} distinct elements/proc *)
  measured_footprints : int array;  (** runtime distinct elements/domain *)
  footprints_agree : bool;  (** exact equality, domain by domain *)
  predicted_per_tile : int option;
      (** Theorem 2/4 cumulative footprint, when the assignment came
          from a tile the model can predict *)
  measured_max : int;
  write_races : (string * int) list;
      (** array name -> elements written by >1 proc through plain
          [Write] references; non-empty means the partition is unsound *)
  shared_accumulates : (string * int) list;
      (** array name -> elements accumulated by >1 proc (legal, atomic) *)
  reduction_arrays : string list;
      (** arrays whose cost class predicts multi-writer contention
          (written class with a tiled null dimension) *)
  race_free : bool;  (** [write_races = []] *)
  deterministic : bool;
      (** no element crosses domains: no race, no contended accumulate
          and no cross-processor read-after-write, exactly the test that
          lets {!Exec.run} drop its step barriers.  Parallel values must
          then equal the sequential reference run's *)
  values_match : bool option;
      (** [Some] iff [deterministic]: whether the run's operands equal
          the sequential reference's *)
}

type conflicts = {
  races : (string * int) list;
      (** array -> elements in two or more [W_p ∪ A_p] and some [W_p] *)
  contended : (string * int) list;
      (** array -> elements in two or more [W_p ∪ A_p] and no [W_p] *)
  crossing : int;
      (** elements that cross domains: raced, contended, or read by one
          domain and written by another ({!Measure.sharing}) *)
}

val classify : Machine.Layout.t -> Measure.sharing -> conflicts
(** The {!Measure.sharing} of the rows of whichever pass produced them
    ({!Kernel.observe} or {!Exec.measure}), with its race and contended
    addresses counted per array, the arrays sorted by name.  The pass's
    steps need a barrier exactly when [crossing > 0]. *)

val check_schedule :
  Codegen.schedule -> steps:int -> operands:Exec.storage -> verdict
(** Validate the compile-time tiled assignment of a schedule,
    {!Scheduling.of_schedule}.  The simulator runs its boxes for one
    step, and {!Kernel.observe} walks each owner's boxes once on the
    calling domain.  One {!Measure.sharing} of those rows answers the
    race and determinism checks and gives the per-domain footprints
    compared with the simulator's.  When the partition is
    deterministic, [values_match] compares [operands], the buffer a run
    of the nest left after [steps] steps, with
    {!Exec.sequential}[ ~steps] element by element. *)

val ok : verdict -> bool
(** Sound and model-consistent: race-free, footprints agree with the
    simulator, and values match whenever determinism requires them to. *)

val pp : Format.formatter -> verdict -> unit
(** The verdict, one check a line.  Where the value check was skipped,
    the line says why: [value check skipped: write races], or a
    nondeterministic order (contended accumulates or cross reads). *)
