(** Closing the loop between the analytic model, the deterministic
    simulator and the real multicore runtime.

    For a schedule this module checks, on the tiles it runs:

    - {b write-race freedom}: in a [Doall] pass, every element reached
      through a plain [Write] reference is written by at most one
      processor.  Contended [Accumulate] ([l$]) elements are legal - the
      paper's Appendix A makes them atomic - but are reported, together
      with the {!Partition.Cost} classes that predict them (written
      classes whose [G] has a null row, i.e. tiled reduction
      dimensions).
    - {b footprint agreement}: the distinct elements each domain touches
      in the real execution equal what {!Machine.Sim} counts for the
      same assignment, and both sit against the Theorem 2/4 prediction.
    - {b determinism / values}: when no element written by one processor
      is read or written by another, the parallel execution must produce
      bit-identical operands to the sequential reference run, and we
      verify that it does. *)

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
      (** additionally no cross-processor read-after-write: parallel
          values must equal the sequential reference run *)
  values_match : bool option;
      (** [Some] iff [deterministic]: the bit-exact comparison result *)
}

val check_schedule : Codegen.schedule -> verdict
(** Validate the compile-time tiled assignment of a schedule,
    {!Scheduling.of_schedule}, on a pool sized to its processor count,
    created and shut down here.  Every check scans the boxes in place;
    the simulator and the runtime both run them as given, the runtime
    as one tile per domain ({!Exec.static_of_assignment}). *)

val ok : verdict -> bool
(** Sound and model-consistent: race-free, footprints agree with the
    simulator, and values match whenever determinism requires them to. *)

val pp : Format.formatter -> verdict -> unit
