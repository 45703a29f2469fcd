(** Run-time scheduling baselines.

    The introduction argues that run-time loop schedulers cannot optimize
    for cache locality because communication patterns are invisible or
    expensive to obtain at run time, citing Guided Self-Scheduling
    (Polychronopoulos & Kuck, the paper's reference [1]).  This module
    provides deterministic models of the classic run-time policies so the
    simulator can quantify that argument against compile-time tiles:

    Every policy deals consecutive chunks of the lexicographic order,
    each decoded into at most [2d - 1] boxes ({!Codegen.iter_range}):

    - {e cyclic}: iteration [t] (in lexicographic order) runs on
      processor [t mod P] - perfect load balance, worst locality;
    - {e block-cyclic}: chunks of [chunk] consecutive iterations dealt
      round-robin;
    - {e guided self-scheduling}: each grab takes [ceil(remaining / P)]
      consecutive iterations, processors served round-robin - the
      decreasing-chunk policy of GSS under a fair arrival model. *)

open Loopir

type assignment = Codegen.box array array
(** Per-processor boxes, each processor's in execution order and each
    box walked lexicographically ({!Codegen.iter_boxes}). *)

val of_schedule : Codegen.schedule -> assignment
(** The compile-time tiled assignment (for uniform comparison):
    {!Codegen.iterations_by_proc}. *)

val cyclic : Nest.t -> nprocs:int -> assignment
val block_cyclic : Nest.t -> nprocs:int -> chunk:int -> assignment
val guided_self_scheduling : Nest.t -> nprocs:int -> assignment

val loads : assignment -> int array
(** Iterations assigned to each processor. *)

val total : assignment -> int
(** Number of iterations assigned (for coverage checks). *)

val max_load : assignment -> int
