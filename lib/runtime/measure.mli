(** Measurement instruments for real executions: per-domain wall-clock,
    iteration counts, and distinct-elements-touched counters - the
    measured analogue of the cumulative footprints Theorems 2/4 predict
    and {!Machine.Sim} counts exactly.

    Footprints are counted by a {!touched} set per domain.  Small
    element spaces use an exact bitset over the {!Machine.Layout}
    address range; spaces too large to bitset fall back to a Bloom
    filter whose cardinality estimate [-m/k ln(1 - ones/m)] is within a
    few permille at the occupancies we produce.

    Each per-domain set pads its payload with a cache-line-sized guard
    region on both sides, so instruments allocated back to back never
    share a line between two writing domains (no false sharing in the
    instrumented pass). *)

type mode =
  | Auto  (** exact up to {!exact_limit} elements, Bloom beyond *)
  | Exact
  | Bloom of int  (** number of filter bits (rounded up to a byte) *)

val exact_limit : int
(** Universe size (elements) up to which [Auto] stays exact. *)

type touched

val touched : mode -> universe:int -> touched
val touch : touched -> int -> unit
val touched_count : touched -> int
val is_exact : touched -> bool

val union_count : touched array -> int
(** Cardinality of the union: bit-or of the underlying sets (all created
    with the same mode and universe).  [0] for an empty array. *)

type domain_stat = {
  domain : int;
  iterations : int;  (** parallel iterations executed, summed over steps *)
  seconds : float;  (** wall-clock inside the job, best timed repeat *)
  footprint : int;  (** distinct elements touched (instrumented pass) *)
}

type raw = {
  wall_seconds : float;  (** best-of-repeats whole-job wall time *)
  seconds : float array;  (** per-domain, from the best repeat *)
  iterations : int array;
  footprints : int array;
  exact_footprints : bool;
  distinct_total : int;  (** union footprint over all domains *)
  checksum : float;
      (** sum over the operand buffer the best timed repeat produced *)
}
(** What {!Exec} hands back; {!report} decorates it. *)

type report = {
  name : string;
  policy : string;
  nprocs : int;
  steps : int;
  repeats : int;
  total_elements : int;  (** size of the operand space (Layout) *)
  predicted_per_domain : int option;
      (** Theorem 2/4 cumulative-footprint prediction, when the policy
          is a compile-time tile the model can predict *)
  per_domain : domain_stat array;
  wall_seconds : float;
  distinct_total : int;
  exact_footprints : bool;
  checksum : float;
}

val report :
  name:string ->
  policy:string ->
  steps:int ->
  repeats:int ->
  total_elements:int ->
  ?predicted_per_domain:int ->
  raw ->
  report

val max_footprint : report -> int

val pp_report : Format.formatter -> report -> unit
(** Table: one row per domain (time, iterations, footprint), then the
    totals and the model prediction side by side, then the checksum as
    the shortest decimal that reads back to the same double. *)
