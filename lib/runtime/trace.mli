(** Low-overhead execution tracing for the runtime: what each domain
    actually did, when, with per-domain counters - the observability
    layer the end-of-run aggregates of {!Measure} and {!Report} cannot
    provide.

    A recorder is created once per traced run, sized to the domain
    count.  Each domain owns a preallocated ring buffer of completed
    spans plus a fixed-depth span stack and a padded counter block, so
    recording never takes a lock, never contends with another domain's
    cache lines (guard padding like {!Measure}'s), and never allocates
    beyond the boxed float the clock read returns.  With the
    {!disabled} recorder every probe is a single immediate branch and
    allocates nothing - the claim path of an untraced run is unchanged.

    All span edges come from {!Mclock}, the runtime's single monotonic
    clock: spans can never have negative durations, and trace
    timestamps are directly comparable with the runtime's own timings.

    Spans record tile claim-to-completion ([Tile]) with the body
    execution nested inside ([Exec]), barrier and gate waits
    ([Barrier]), dynamic-scheduling chunk claims ([Chunk]), orphan
    re-execution during crash recovery ([Reexec]), and whole-step
    sweeps ([Step]); instants mark steals ([Steal]) and watchdog verdicts
    ([Watchdog]).  Counters tally tiles run, steals, backoff yields,
    distinct elements touched (fed from {!Measure} footprints), and
    faults injected/detected.

    The result exports as Chrome [trace_event] JSON ([chrome://tracing]
    or Perfetto load it directly) and as a compact {!summary} that
    {!Report} embeds. *)

type kind =
  | Tile  (** one tile, claim to completion; arg = tile id *)
  | Exec  (** the tile body proper, nested inside [Tile] *)
  | Barrier  (** waiting at a step barrier or the resilient gate *)
  | Chunk  (** one dynamic-scheduling chunk claim; arg = start index *)
  | Steal  (** instant: a chunk or tile taken from another domain *)
  | Watchdog  (** instant: the watchdog timed this domain out; arg = step *)
  | Reexec  (** re-execution of an orphaned tile; arg = tile id *)
  | Step  (** one outer sequential step's compute sweep; arg = step *)

val kind_name : kind -> string

type counter =
  | Tiles_run
  | Steals
  | Backoff_yields
  | Elements_touched
  | Faults_injected
  | Faults_detected

val counter_name : counter -> string

type t

val disabled : t
(** The inert recorder: every probe returns immediately, records
    nothing, allocates nothing.  The default everywhere a [?trace]
    parameter is optional. *)

val create : ?capacity:int -> domains:int -> unit -> t
(** An enabled recorder for domains [0 .. domains - 1], each with room
    for [capacity] (default 65536) completed spans.  When a domain
    overflows its ring the oldest spans are overwritten and counted as
    dropped ({!summary}). *)

val enabled : t -> bool

(** {2 Recording (hot path)}

    All of these are no-ops on a disabled recorder and on out-of-range
    domains.  Spans nest per domain in stack discipline: every
    {!begin_span} is closed by the matching {!end_span}, which records
    the completed span.  Nesting deeper than an internal limit (32) is
    timed as zero-duration rather than corrupting the stack. *)

val begin_span : t -> int -> kind -> arg:int -> unit
val end_span : t -> int -> unit

val instant : t -> int -> kind -> arg:int -> unit
(** A zero-duration event (steal, watchdog verdict). *)

val incr : t -> int -> counter -> unit
val add : t -> int -> counter -> int -> unit

val depth : t -> int -> int
(** Current span-stack depth of a domain (0 on disabled recorders). *)

val unwind : t -> int -> depth:int -> unit
(** Discard unclosed spans above [depth] without recording them: the
    exception-path cleanup that keeps a crashed domain's trace
    well-formed. *)

(** {2 Export (cold path)} *)

type event = {
  domain : int;
  kind : kind;
  t0 : float;  (** seconds on {!Mclock}, relative to recorder creation *)
  dur : float;  (** seconds; 0 for instants *)
  arg : int;
}

val events : t -> event list
(** Every recorded span, oldest first per domain (domains
    concatenated).  Overwritten (dropped) spans are absent. *)

val to_chrome_json : t -> string
(** The whole trace as Chrome [trace_event] JSON: an object with a
    [traceEvents] array of ["ph": "X"] complete events, [ts]/[dur] in
    microseconds, [pid] 0, [tid] = domain. *)

type summary = {
  domains : int;
  events : int;  (** spans currently held (dropped excluded) *)
  dropped : int;
  tiles_run : int;
  steals : int;
  backoff_yields : int;
  elements_touched : int;
  faults_injected : int;
  faults_detected : int;
  busy_seconds : (string * float) list;
      (** per span kind, total recorded duration summed over domains;
          kinds with no spans omitted *)
}

val summary : t -> summary

val counters : t -> int -> counter -> int
(** Read one domain's counter (0 on disabled recorders). *)

val pp_summary : Format.formatter -> summary -> unit

val json_of_summary : summary -> Json.t
(** The summary as one JSON object (embedded by {!Report.to_json} and
    the bench profile rows). *)
