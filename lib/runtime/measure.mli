(** Measurement instruments for real executions: per-domain wall-clock,
    iteration counts, and distinct-elements-touched counters - the
    measured analogue of the cumulative footprints Theorems 2/4 predict
    and {!Machine.Sim} counts exactly.

    Footprints are counted exactly by {!Intmath.Bitset} sets per
    domain: one bit per element of the {!Machine.Layout} address range,
    so a set costs [universe / 8] bytes.  The same sets, split into
    reads, plain writes and accumulates, tell which elements cross
    domains ({!sharing}): whether a run's steps need a barrier, and
    which elements race. *)

type mode =
  | Exact
      (** the only instrument.  The type stays only until its last
          readers drop it *)

(** {2 What crosses domains}

    Given per domain [p] the elements it reads, [R_p], plainly writes,
    [W_p], and accumulates, [A_p], its written elements are
    [X_p = W_p ∪ A_p].  An element {e crosses domains} when one domain
    writes it and another reads or writes it.  Exactly then the order
    of two domains' accesses to it is visible in the result, so a step
    needs a barrier only when some element crosses.  An element in two
    or more [X_p] is a write race when some [W_p] holds it, else a
    contended accumulate (atomic, Appendix A's [l$]).  The read half of
    crossing is the flow-in set of Ferry, Derrien and Rajopadhye:
    [R_p ∩ ⋃_{q≠p} X_q], what [p] reads that another domain produced.
    An element crosses iff it races, is contended or is in some
    domain's flow-in. *)

type sharing = {
  footprints : int array;  (** per domain: [|R_p ∪ X_p|] *)
  distinct : int;  (** [|⋃_p (R_p ∪ X_p)|] *)
  flow_in : int array;  (** per domain: [|R_p ∩ ⋃_{q≠p} X_q|] *)
  crossing : int;  (** elements that cross domains *)
  read_written : int;
      (** [|(⋃_p R_p) ∩ (⋃_p X_p)|]: elements some domain reads and some
          domain writes *)
  races : int list;
      (** ascending addresses in two or more [X_p] and some [W_p] *)
  contended : int list;
      (** ascending addresses in two or more [X_p] and no [W_p] *)
}

val sharing :
  reads:Intmath.Bitset.t array ->
  writes:Intmath.Bitset.t array ->
  accumulates:Intmath.Bitset.t array ->
  sharing
(** What the rows [reads.(p)], [writes.(p)] and [accumulates.(p)] hold
    and share, counted in one pass that reads 64 bits of each row per
    load and counts them by halving sums: the only classifier of
    observer rows, for the run's barrier and reset rules ({!Exec.run})
    and the validator's verdict ({!Validate.classify}) alike.  Addresses
    are listed only from words where two domains write, so a pass with
    none pays one test per word for them.  [read_written = 0] says the
    flow from writes to reads is empty: no element's value is both
    produced and consumed.  Raises [Invalid_argument] unless there are
    as many rows of each kind, over one universe. *)

type barriers =
  | Barrier_free
      (** static work on which no element crosses domains: the steps
          run with no barrier between them *)
  | Every_step of int
      (** one barrier ends every step; the elements that cross domains
          over the observed steps ([0] when only dealing the work at run
          time keeps the barriers) *)

type repeat_buffer =
  | Reset_each
      (** the timed repeats' one buffer is reset to the initial operands
          before every repeat but the first *)
  | Reused
      (** no element is both read and written and no write accumulates,
          so every repeat leaves the same buffer whatever it starts from:
          the repeats run on it back to back, with no reset *)

type domain_stat = {
  domain : int;
  iterations : int;  (** parallel iterations executed, summed over steps *)
  seconds : float;  (** wall-clock inside the job, best timed repeat *)
  footprint : int;  (** distinct elements touched (observing pass) *)
  flow_in : int;  (** elements it reads that another domain writes *)
}

type raw = {
  wall_seconds : float;  (** best-of-repeats whole-job wall time *)
  seconds : float array;  (** per-domain, from the best repeat *)
  iterations : int array;
  footprints : int array;
  distinct_total : int;  (** union footprint over all domains *)
  checksum : float;  (** sum of [operands], in index order *)
  operands : float array;  (** the buffer the last timed repeat left *)
  flow_in : int array;  (** per domain, {!sharing} of the observing pass *)
  barriers : barriers;  (** what ended the timed pass's steps *)
  repeat_buffer : repeat_buffer;  (** what the timed repeats started from *)
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
  operands : float array;
      (** the run's buffer, for {!Validate}'s value check *)
  barriers : barriers;
  repeat_buffer : repeat_buffer;
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
(** Table: one row per domain (time, iterations, footprint, flow-in),
    then the totals and the model prediction side by side, the step
    barriers ([step barriers: none (no element crosses domains)] or
    [step barriers: every step (N elements cross)]), what the repeats
    started from ([repeats: no reset (no element is both read and
    written)] or [repeats: reset before each]), and the checksum
    as the shortest decimal that reads back to the same double. *)
