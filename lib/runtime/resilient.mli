(** Fault-tolerant execution of partitioned [Doall] nests.

    {!Exec} assumes every domain finishes every tile: one worker
    exception aborts the whole job and a silent straggler hangs the
    barrier forever.  This module re-runs the same tiled work with four
    defenses layered on top:

    - {b fault hooks}: an optional {!Fault.plan} fires injected crashes,
      stalls and corruptions at chosen (domain, step, claim) sites - the
      adversity the rest of the machinery is tested against.  Without a
      plan the hook is a single consumed-array scan per tile claim; the
      plain {!Exec}/{!Pool} paths never see it at all;
    - {b watchdog}: workers publish a per-tile heartbeat; the calling
      domain, while it waits, watches every domain running its tiles or
      re-executing an orphan, and turns a heartbeat silent beyond the
      configured deadline into a {!Report.Timed_out} event that fails
      the attempt - no hang, even when a crash leaves a lone survivor;
    - {b tile-level recovery}: when the nest's tiles are idempotent
      ({!Exec.reexecution_safe}), a crashed domain retires, its claimed
      tile is orphaned, and surviving domains re-execute it before the
      step gate opens - a completion bitmap checks every tile ran
      effectively once per step;
    - {b graceful degradation}: the {!policy} decides what a failed
      attempt costs - give up ([Fail_fast]), retry with exponential
      backoff on fresh operands ([Retry]), or additionally shrink the
      domain count, re-partition, and ultimately fall back to sequential
      execution ([Degrade]).

    A retried attempt always restarts from freshly initialized operands,
    so an aborted half-mutated buffer can never leak into the result:
    the final buffer of a completed job is bit-identical to a fault-free
    run whenever the nest is deterministic. *)

type policy =
  | Fail_fast  (** first failure fails the job; no recovery of any kind *)
  | Retry of { attempts : int; backoff_ms : int }
      (** tile-level crash recovery when safe, plus up to [attempts]
          pool jobs with doubling backoff starting at [backoff_ms] *)
  | Degrade
      (** like [Retry] (two attempts per size), then halve the domain
          count and re-partition; sequential execution as last resort -
          this path always completes *)

val policy_to_string : policy -> string

val policy_of_string : string -> (policy, string) result
(** [fail-fast | retry\[:ATTEMPTS\[:BACKOFF_MS\]\] | degrade]. *)

type config = {
  policy : policy;
  deadline_ms : int;
      (** watchdog: a straggler whose heartbeat is silent this long is
          declared timed out; at least 1 *)
}

val default_config : config
(** [Retry {attempts = 3; backoff_ms = 25}], 1000 ms deadline. *)

type partitioned = {
  tiles : Exec.tile array;  (** tile id -> its boxes, in order *)
  owners : int array;  (** tile id -> preferred domain, below the pool size *)
}
(** Tile-granular work: the unit of claiming, stealing, completion
    tracking and recovery. *)

val tiles_of_schedule : Partition.Codegen.schedule -> partitioned
(** The schedule's compile-time tiles and owners,
    {!Partition.Codegen.tiles}. *)

val execute :
  ?config:config ->
  ?plan:Fault.plan ->
  ?kernels:bool ->
  ?trace:Trace.t ->
  compiled:Exec.compiled ->
  steps:int ->
  partition:(nprocs:int -> partitioned) ->
  nprocs:int ->
  unit ->
  Report.t * float array
(** Run [steps] outer iterations of the nest under the policy, starting
    on [nprocs] domains partitioned by [partition ~nprocs] (called again
    with smaller counts when degrading).  The job spawns one pool of
    [nprocs] domains, at its first attempt whose partition is good, and
    runs every attempt on it: an attempt on [k] domains runs on domains
    [0 .. k - 1] and the others return at once.  Each attempt first checks its partition with
    {!Exec.check_work}: a box outside [Nest.bounds], a tile without an
    owner or an owner outside the attempt's domains fails the attempt
    as [bad partition: ...] before any box runs.  Every box runs through
    {!Kernel.run_box}; [kernels] is ignored, kept until its last callers
    drop it.  With [trace], workers record tile and re-execution spans,
    gate waits, steals, watchdog verdicts and fault counters into it
    (size it for the {e initial} [nprocs]; degraded attempts reuse the
    low domain slots), and the report carries a {!Trace.summary}.
    Returns the report and the final operand buffer (meaningful when
    [(fst r).Report.completed]); [Invalid_argument] if [nprocs], [steps]
    or [config.deadline_ms] is below 1. *)
