(** Measurement instruments for real executions: per-domain wall-clock,
    iteration counts, and distinct-elements-touched counters - the
    measured analogue of the cumulative footprints Theorems 2/4 predict
    and {!Machine.Sim} counts exactly.

    Footprints are counted exactly by a {!touched} set per domain: one
    bit per element of the {!Machine.Layout} address range, so a domain
    costs [universe / 8] bytes.

    Each per-domain set pads its payload with a cache-line-sized guard
    region on both sides, so instruments allocated back to back never
    share a line between two writing domains (no false sharing in the
    observing pass). *)

type mode =
  | Exact
      (** the only instrument.  The type stays only until its last
          readers drop it *)

type touched

val touched : universe:int -> touched
(** An empty set over addresses [0 .. universe - 1]. *)

val touch : touched -> int -> unit
(** Add an address; it must lie in the set's universe (unchecked). *)

val mem : touched -> int -> bool
(** Whether the set holds an address of its universe (unchecked). *)

val touched_count : touched -> int

val union_count : touched array -> int
(** Cardinality of the union.  [0] for an empty array; raises
    [Invalid_argument] unless every set has the same universe. *)

type domain_stat = {
  domain : int;
  iterations : int;  (** parallel iterations executed, summed over steps *)
  seconds : float;  (** wall-clock inside the job, best timed repeat *)
  footprint : int;  (** distinct elements touched (observing pass) *)
}

type raw = {
  wall_seconds : float;  (** best-of-repeats whole-job wall time *)
  seconds : float array;  (** per-domain, from the best repeat *)
  iterations : int array;
  footprints : int array;
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
