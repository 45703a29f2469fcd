(** The cache-coherent multiprocessor simulator (the Alewife stand-in of
    Figure 2 / Section 4).

    Executes a partitioned loop nest on [P] simulated processors with
    private MSI caches kept coherent by a full-map directory, counting the
    events the paper's analysis predicts: distinct elements cached per
    processor (cumulative footprints), cold and coherence misses,
    invalidations, and network traffic.  An optional outer sequential loop
    (Figure 9) re-executes the parallel body to expose steady-state
    coherence traffic.

    Each processor's copy of a line is recorded once, in the {!Cache}
    line table: one byte per (line, processor), so a run holds
    [P * ceil (Layout.total_elements / line_size)] bytes of cache state
    (7.5 MB for E8's 117,912 lines at P = 64), plus [P * sets * ways]
    words of LRU order when the caches are finite.  The directory is a
    view of the table - a line's sharers are the processors holding it,
    its owner the one holding it [Modified] - and the byte also gives a
    miss its class: never held (cold), lost to an invalidation
    (coherence) or to an eviction (replacement).  A processor's
    footprint is its count of cold misses.

    The simulator is deterministic: iterations are issued round-robin
    across processors, each processor's in the order of its boxes;
    sharers are visited in ascending processor order. *)

open Partition

type topology = Uniform_memory | Mesh2d

type config = {
  geometry : Cache.geometry;
  topology : topology;
  placement : Data_partition.placement option;
      (** home memory module per element; [None] models the monolithic
          uniform-access memory of Figure 2 *)
  seq_steps : int option;
      (** override the number of outer sequential iterations
          ({!Loopir.Nest.steps}: default the nest's Doseq trip count, or 1;
          an override below 1 raises [Invalid_argument]) *)
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
(** {!run_work} over the schedule's tiles ({!Partition.Codegen.tiles}):
    each processor issues its tiles in tile-number order, as the
    generated SPMD code and the runtime run them. *)

val run_work : Loopir.Nest.t -> nprocs:int -> Scheduling.work -> config -> result
(** Run any work on [nprocs] processors (e.g. a run-time policy's
    claims, {!Partition.Scheduling}), each processor's boxes in the
    order {!Partition.Scheduling.per_proc} gives and each box
    lexicographically, read through a per-processor cursor.  Raises
    [Invalid_argument] where {!Partition.Scheduling.check} does. *)

type machine
(** The simulated machine: the caches' line table and the event
    counters. *)

val machine : Loopir.Nest.t -> nprocs:int -> config -> machine
(** A fresh machine over the nest's {!Layout}: every line [Never], every
    counter 0.  [seq_steps] is not read. *)

val access : machine -> int -> int -> write:bool -> sync:bool -> unit
(** [access m p line ~write ~sync]: processor [p] reads ([write] false)
    or writes [line] through the MSI protocol, counting the events;
    [sync] marks an accumulate. *)

val cache : machine -> Cache.t
val stats : machine -> Stats.t

val footprints : result -> int array
(** Measured per-processor cumulative footprints (distinct cache lines
    touched, so distinct elements at unit lines), the quantity
    Theorems 2/4 predict. *)

val pp_result : Format.formatter -> result -> unit
