(** The differential oracles: four independent answers to "what does a
    partitioned nest touch / cost", cross-checked per generated case.

    - {b footprint-single / footprint-cumulative}: the closed forms of
      [Footprint.Size] (Theorem 5 / Lemma 3 / Theorem 4) against exhaustive
      enumeration by [Footprint.Exact];
    - {b owner-cover}: [Partition.Codegen.owner] schedules partition the
      iteration space exactly once;
    - {b runtime-sim-agree}: [Runtime.Exec]/[Runtime.Measure] bitsets on
      real domains, [Machine.Sim] directory counters and brute-force
      enumeration all report identical per-processor footprints;
      [Runtime.Exec.run] with [Runtime.Kernel.run_box] and
      [Runtime.Kernel.observe] (the [Driver.execute] path), on the
      rectangular and the sheared tiles and on stolen pieces of them,
      reports the interpreter's all-steps footprints and distinct
      total - over several steps from a one-step observation of static
      tiles - and, on order-insensitive nests, the sequential checksum;
    - {b optimizer-dominates}: [Partition.Rectangular.optimize] is never
      worse (under [Partition.Cost.eval_objective]) than an independent
      exhaustive search over feasible processor grids;
    - {b sim-relabel-invariant}: [Machine.Sim] traffic quantities that are
      functions of the partition (not of processor names) are unchanged
      when processors are relabeled;
    - {b kernel-interp-agree}: [Runtime.Kernel]'s lowered strided loops
      (both the shape-specialized plan and the generic fallback) produce
      byte-identical final buffers to the point interpreter run over the
      same tile boxes - including dependent-column nests and accumulate
      references, where traversal reordering would be unsound unless
      the plan's safety analysis forbids it.

    A fault can be injected to prove the harness detects and shrinks real
    bugs: [Spread_off_by_one] perturbs the class spread/translation vector
    (the classic Definition 8 bug), [Drop_iteration] deletes one iteration
    from a processor's schedule. *)

open Runtime

type fault = No_fault | Spread_off_by_one | Drop_iteration

val fault_of_string : string -> fault option
val fault_to_string : fault -> string
val all_faults : fault list

type violation = { oracle : string; detail : string }

val pp_violation : Format.formatter -> violation -> unit

(** Domain pools are expensive to spawn and idle workers block on a
    condition variable, so one pool per distinct processor count is
    created lazily and shared across all cases of a run. *)
module Pools : sig
  type t

  val create : unit -> t
  val get : t -> int -> Pool.t
  val shutdown : t -> unit
end

val check : fault:fault -> pools:Pools.t -> Gen.case -> violation option
(** Run every oracle on one case; [None] means all oracles agree.  An
    unexpected exception from any layer is itself reported as a
    violation (oracle ["exception"]). *)
