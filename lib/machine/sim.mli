(** The cache-coherent multiprocessor simulator (the Alewife stand-in of
    Figure 2 / Section 4).

    Executes a partitioned loop nest on [P] simulated processors with
    private MSI caches kept coherent by a full-map directory, counting the
    events the paper's analysis predicts: distinct elements cached per
    processor (cumulative footprints), cold and coherence misses,
    invalidations, and network traffic.  An optional outer sequential loop
    (Figure 9) re-executes the parallel body to expose steady-state
    coherence traffic.

    The simulator is deterministic: iterations are issued round-robin
    across processors, each processor's in the order of its boxes;
    ties never depend on hashing order. *)

open Partition

type topology = Uniform_memory | Mesh2d

type config = {
  geometry : Cache.geometry;
  topology : topology;
  placement : Data_partition.placement option;
      (** home memory module per element; [None] models the monolithic
          uniform-access memory of Figure 2 *)
  seq_steps : int option;
      (** override the number of outer sequential iterations; default: the
          nest's Doseq trip count, or 1 *)
  line_size : int;
      (** cache-line length in elements.  Every access goes through the
          row-major {!Layout} the runtime uses (arrays line-aligned), and
          line [a / line_size] of element address [a] is the coherence
          unit.  1 is the paper's Section 2.2 assumption; larger values
          make the last array dimension share lines, so false sharing
          becomes observable *)
}

val default : config
(** Infinite caches, uniform memory, no placement, one pass, unit
    cache lines. *)

type result = {
  stats : Stats.t;
  distinct_total : int;  (** distinct elements touched by any processor *)
  nprocs : int;
  steps : int;
}

val run : Codegen.schedule -> config -> result
(** {!run_assignment} over {!Partition.Scheduling.of_schedule}: each
    processor issues its tiles in tile-number order, as the generated
    SPMD code and the runtime run them. *)

val run_assignment :
  Loopir.Nest.t -> per_proc:Codegen.box array array -> config -> result
(** Run an arbitrary per-processor assignment of boxes (e.g. the
    run-time scheduling baselines of {!Partition.Scheduling}), each
    processor's boxes in order and each box lexicographically, read
    through a per-processor cursor.  Raises
    [Invalid_argument] for a non-empty box outside the nest's iteration
    space (empty boxes are skipped). *)

val footprints : result -> int array
(** Measured per-processor cumulative footprints (distinct cache lines
    touched, so distinct elements at unit lines), the quantity
    Theorems 2/4 predict. *)

val pp_result : Format.formatter -> result -> unit
