(** The end-to-end partitioning pipeline: the OCaml analogue of the
    Alewife compiler passes of Figure 10 (analysis on the communication
    graph, loop partitioning, data partitioning/alignment, and - standing
    in for a machine run - simulation). *)

open Loopir
open Partition
open Machine

type analysis = {
  nest : Nest.t;
  nprocs : int;
  cost : Cost.t;  (** classification + symbolic footprints *)
  rect : Rectangular.result;  (** the partition the compiler emits *)
  skewed : Skewed.result option;
      (** parallelepiped alternative, when the engine applies and was
          requested *)
  rs : Baselines.Ramanujam_sadayappan.t;  (** communication-freedom *)
  ah : (Baselines.Abraham_hudak.result, string) result;
}

val analyze : ?try_skewed:bool -> nprocs:int -> Nest.t -> analysis
(** Classify, build the cost model and optimize.  [try_skewed] defaults to
    [false] (rectangular only, like the implemented Alewife subset). *)

val best_tile : analysis -> Tile.t
(** The skewed tile when it strictly improves on the rectangular one,
    else the rectangular tile. *)

val schedule : ?tile:Tile.t -> analysis -> Codegen.schedule

val simulate :
  ?tile:Tile.t -> ?config:Sim.config -> analysis -> Sim.result
(** Run the simulator on the chosen partition (default: rectangular tile,
    default simulator configuration). *)

val simulate_aligned :
  ?tile:Tile.t -> ?geometry:Cache.geometry -> analysis -> Sim.result
(** Distributed-memory run: 2-D mesh with loop-tile-aligned data
    placement (the paper's Section 4 configuration). *)

(** {2 Real execution on OCaml 5 domains}

    The measurement the paper's Section 4 deferred to the Alewife
    machine: run the partitioned nest for real, on [nprocs] domains over
    shared operands, and measure what the model predicts. *)

type exec_policy =
  | Tiled  (** the compile-time partition of {!schedule} *)
  | Cyclic  (** run-time self-scheduling, chunk 1 *)
  | Block_cyclic of int  (** run-time self-scheduling, fixed chunk *)
  | Guided  (** guided self-scheduling (the paper's reference [1]) *)
  | Work_steal of int
      (** the compile-time tiles cut into pieces of at most this many
          iterations, drained by their owners with back-stealing *)

type exec_config = {
  policy : exec_policy;
  repeats : int;  (** timed runs; minimum is reported *)
  steps : int option;  (** override the outer [Doseq] trip count *)
  footprint : Runtime.Measure.mode;
      (** ignored: footprints are always exact distinct-element counts.
          The field once chose the instrument and stays only until its
          last readers drop it *)
  bigarray : bool;
      (** ignored: operands are always a [float array].  The field once
          selected a [Bigarray] and stays only until its last readers
          drop it *)
  kernels : bool;
      (** ignored: every box of every run goes through
          {!Runtime.Kernel}.  The field once chose between the kernels
          and the interpreter and stays only until its last readers
          drop it *)
  trace : Runtime.Trace.t option;
      (** record per-domain spans and counters into this recorder during
          the timed passes (size it for [analysis.nprocs]); under the
          [Tiled] policy every tile gets its own span *)
}

val default_exec_config : exec_config
(** [Tiled], 3 repeats, the nest's own step count, no trace. *)

val execute :
  ?config:exec_config -> ?tile:Tile.t -> analysis -> Runtime.Measure.report
(** Execute the nest on [analysis.nprocs] domains and measure per-domain
    wall-clock, iterations and distinct-elements footprints, alongside
    the Theorem 2/4 prediction when the policy is [Tiled].  Every
    policy runs boxes: the tiles of {!Partition.Codegen.tiles} ([Tiled]),
    those tiles cut into pieces ([Work_steal]), or the index ranges a
    self-scheduler claims, decoded into boxes.  The timed pass runs
    every box through {!Runtime.Kernel.run_box}, and the report's
    policy names the kernel shape.  The report's [operands] are the
    buffer the last timed repeat left, and its checksum their sum.  The
    footprints come from {!Runtime.Kernel.observe} walking the same work
    with the kernel's cursors and no operands:
    one step of it under [Tiled], where each domain touches the same
    elements every step, and every step under the other policies,
    which deal work at run time ({!Runtime.Exec.observed_steps}). *)

val execute_resilient :
  ?config:exec_config ->
  ?resilience:Runtime.Resilient.config ->
  ?plan:Runtime.Fault.plan ->
  ?tile:Tile.t ->
  analysis ->
  Runtime.Report.t * float array
(** Execute the nest under the fault-tolerant runtime ({!Runtime.Resilient}):
    watchdog timeouts, tile-level crash recovery and policy-driven
    retry/degradation.  [plan] injects faults for testing; when degrading
    shrinks the pool, the partition is re-optimized for the smaller
    processor count.  [config.repeats] is
    ignored (a resilient run is a single monitored execution). *)

val validate :
  ?tile:Tile.t ->
  analysis ->
  steps:int ->
  operands:Runtime.Exec.storage ->
  Runtime.Validate.verdict
(** {!Runtime.Validate.check_schedule} of the tiled schedule: write-race
    freedom and footprint agreement from the simulator and the kernel's
    cursor walk, which execute nothing, and value determinism from
    [operands], the buffer a run of [steps] steps left - a report's
    [operands] ({!execute}) or the buffer {!execute_resilient}
    returns. *)

val report : Format.formatter -> analysis -> unit
(** Human-readable compiler report: classes, polynomials, chosen
    partition, baselines. *)
